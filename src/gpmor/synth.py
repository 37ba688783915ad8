"""Synthetic parametric snapshot families with known POD subspaces.

These families replace an external FEM stage: for a list of parameter values
they give snapshot matrices whose dominant left subspaces follow an
analytically known trajectory on G(p, n), with singular values 10, 5, 2.5,
... and noise at spec.noise. Four kinds are covered:

* rotation  - every design direction turns by rate * lam in its own
              coordinate 2-plane; the log-map lift is linear in the
              parameter, so Lagrange interpolation is exact.
* crossing  - a rotation family whose interpolated lift's largest angle from
              a reference node lam0 is rate * |lam - lam0|, so C2 fails
              exactly for |lam - lam0| > pi / (2 rate) (C2 loss inside the
              parameter hull); those crossing points ship in the manifest.
* nested    - only the first direction moves, inside a fixed 2-plane, so the
              per-mode interpolants nest and the C3 distance table vanishes;
              the noise is pinned to at most NESTED_NOISE so nesting survives POD.
* nonnested - the frame is Q(lam) = expm(rate*lam*K1 + rate*lam^2*K2) applied
              to a fixed orthonormal block, with K2 acting only past the
              first two directions, so low modes stay nearly exact while
              higher-mode interpolants fail to nest and the C3 ratio blows up.

Randomness comes from a seeded PCG64 generator, so identical specs draw
identical random numbers. The snapshots are bitwise identical only on one
numpy/BLAS build at one BLAS thread count: a threaded GEMM can move last
bits between thread counts (with OpenBLAS 0.3.31, a 5202 x 213 x 8 product
differs between 1 and 2 threads). `stream` builds each snapshot as a stream of
row blocks, so a caller that writes each block before taking the next never
holds a whole snapshot; `generate` stacks the same blocks into a tuple of
snapshots.
"""

import math
import warnings

import numpy as np

from .errors import ParameterError
from .grassmann import deterministic_qr
from .record import Record, asdict, field
from .snapshots import SnapshotMatrix

KINDS = ("rotation", "crossing", "nested", "nonnested")

LADDER_TOP = 10.0
LADDER_RATIO = 0.5
DEFAULT_NOISE = 1e-6
# The nested family needs its noise floor below the inclusion angle tolerance,
# otherwise the analytic nesting would drown in POD noise.
NESTED_NOISE = 1e-10
RNG_NAME = "pcg64"
# Bytes of a row block of a snapshot synth builds (its noise draw is as
# large). At snapshots.STREAM_BYTES (8 MB) a 4000 x 200 snapshot would be a
# single block; at 1 MB it takes 7.
BLOCK_BYTES = 1 << 20
# Every row block but the last is a multiple of this many rows. A GEMM
# micro-kernel takes rows in fixed panels (12 in OpenBLAS's Haswell dgemm),
# and a panel cut short at a block's end goes through another kernel, with
# other rounding; blocks that start on a panel boundary give each row the
# bits of one product of the whole snapshot. A threaded GEMM that splits the
# product unevenly can still move last bits, as it does for a whole product
# between thread counts.
_ROW_ALIGN = 48


class FamilySpec(Record):
    """Recipe for one synthetic family."""

    n: int
    n_t: int
    mode_count: int
    kind: str
    rate: float
    seed: int
    params: tuple
    noise: float = DEFAULT_NOISE

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}; expected one of {KINDS}")
        if self.mode_count < 1:
            raise ParameterError("mode_count must be positive")
        if 2 * self.mode_count > self.n:
            raise ParameterError(
                f"need 2 * mode_count <= n, got mode_count={self.mode_count}, n={self.n}"
            )
        if self.n_t < self.mode_count:
            raise ParameterError("n_t must be at least mode_count")
        for name in ("rate", "noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(f"{name} must be finite and non-negative, got {value}")
        params = tuple(float(x) for x in self.params)
        if not all(map(math.isfinite, params)):
            raise ParameterError(f"family parameters must be finite, got {list(params)}")
        if len(set(params)) != len(params):
            raise ParameterError("family parameters must be pairwise distinct")
        if not params:
            raise ParameterError("family needs at least one parameter value")
        object.__setattr__(self, "params", params)

    def to_dict(self):
        return dict(asdict(self), params=list(self.params))


class SynthFamily(Record):
    spec: FamilySpec
    snapshots: tuple
    manifest: dict = field(default_factory=dict)


def _ladder(p):
    return LADDER_TOP * LADDER_RATIO ** np.arange(p)


def _row_ranges(n, n_t):
    """(start, stop) of each row block synth builds of an n x n_t snapshot,
    in order: blocks of a multiple of _ROW_ALIGN rows within BLOCK_BYTES (at
    least _ROW_ALIGN rows), the last one shorter. A lone last row joins the
    block before it: as a 1 x p by p x n_t product it would be a
    matrix-vector product, with other rounding."""
    rows = max(_ROW_ALIGN, BLOCK_BYTES // (8 * n_t) // _ROW_ALIGN * _ROW_ALIGN)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _turning(angles):
    """Trajectory in which direction i turns by angles(lam)[i] inside the plane
    (b_2i, b_2i+1) of an n x 2p ambient frame."""

    def trajectory(ambient, rng):
        even, odd = ambient[:, 0::2], ambient[:, 1::2]

        def directions(lam):
            a = angles(lam)
            return np.cos(a) * even + np.sin(a) * odd

        return directions

    return trajectory


def _rotation(spec):
    spread = max(spec.params) - min(spec.params)
    if spec.kind == "rotation" and spec.rate * spread >= np.pi / 2.0:
        warnings.warn(
            f"rate * parameter spread = {spec.rate * spread:.4f} >= pi/2: "
            "the family will cross the injectivity boundary (use kind='crossing' "
            "if that is intended)",
            RuntimeWarning,
            # past stream, then generate or cli.cmd_synth: their caller
            stacklevel=4,
        )
    trajectory = _turning(lambda lam: np.full(spec.mode_count, spec.rate * lam))
    return 2 * spec.mode_count, trajectory, spec.noise, {"theta1_per_unit_param": spec.rate}


def _crossing(spec):
    if spec.rate <= 0.0:
        raise ParameterError("crossing family needs a positive rate")
    width, trajectory, noise, extra = _rotation(spec)
    offset = np.pi / (2.0 * spec.rate)
    extra = dict(extra, crossing_offset=offset, crossing_points={
        repr(lam): [lam - offset, lam + offset] for lam in spec.params
    })
    return width, trajectory, noise, extra


def _nested(spec):
    # the other directions turn by 0: cos 0 = 1 and sin 0 = 0 are exact, so
    # each stays its ambient column bit for bit
    rest = np.zeros(spec.mode_count - 1)
    trajectory = _turning(lambda lam: np.r_[spec.rate * lam, rest])
    noise = min(spec.noise, NESTED_NOISE)
    return 2 * spec.mode_count, trajectory, noise, {
        "noise": noise,
        "nesting": "exact by construction; cross-mode geometric distances vanish",
    }


def _skew(rng, size):
    """A size x size skew-symmetric generator of unit 2-norm, or the zero one
    when the draw has none (size 1, or 0)."""
    a = rng.standard_normal((size, size))
    k = a - a.T
    norm = np.linalg.norm(k, 2)
    return k / norm if norm > 0.0 else k


def expm_skew(a, b):
    """exp(a) @ b for a real skew-symmetric a, from one symmetric
    eigendecomposition a^T a = V diag(w^2) V^T: the even and odd parts of the
    exponential series are cos and sinc of sqrt(a^T a), so
    exp(a) b = V cos(W) V^T b + a V sinc(W) V^T b (Moler & Van Loan, SIAM Rev.
    2003). Each w_j is read as |a v_j| rather than from its eigenvalue, which
    eigh gives only to u |a|^2 absolutely: the norm keeps cos^2 + sin^2 = 1
    per column, so orthonormal columns of b stay orthonormal to rounding.
    a = 0 gives b back bit for bit."""
    v = np.linalg.eigh(a.T @ a)[1]
    av = a @ v
    w = np.linalg.norm(av, axis=0)
    c = v.T @ b
    return v @ (np.cos(w)[:, None] * c) + av @ (np.sinc(w / np.pi)[:, None] * c)


def _nonnested(spec):
    def trajectory(ambient, rng):
        u0 = ambient[:, : spec.mode_count]
        k1 = _skew(rng, spec.n) * spec.rate
        # curvature generator confined to the span beyond the two leading directions
        w = ambient[:, 2:]
        k2 = w @ _skew(rng, spec.n - 2) @ w.T * spec.rate
        return lambda lam: expm_skew(lam * k1 + lam * lam * k2, u0)

    # K1 and K2 act on the whole space, so this kind draws the full n x n frame
    return spec.n, trajectory, spec.noise, {
        "nesting": "broken by construction; expect a large C3 ratio"}


# A kind's recipe checks the spec and returns what stream builds the family
# from: the frame width, the trajectory, the noise level and the manifest
# keys of the kind.
_RECIPES = {
    "rotation": _rotation,
    "crossing": _crossing,
    "nested": _nested,
    "nonnested": _nonnested,
}


def stream(spec):
    """(manifest, snapshots) of spec's family, where snapshots yields for each
    parameter, in order, the pair (lam, blocks): blocks yields the n x n_t
    snapshot's row blocks in order, each built when it is taken. A caller
    takes every block of a snapshot before the next snapshot. Nothing keeps
    a block that has been handed out, so a caller that writes each block
    before it takes the next holds one block of BLOCK_BYTES, never a whole
    snapshot.

    Seeds the RNG, draws a random ambient frame (n x width) and the time
    profiles, and asks the kind's `trajectory(ambient, rng)` for its map
    lam -> n x p directions (it draws what else it needs from rng). Each row
    block is (directions * ladder)[rows] @ profiles^T plus its noise, drawn
    as it is added, so the blocks take the PCG64 stream in the order of one
    C-ordered n x n_t draw per parameter. The frame is Haar on the Stiefel
    manifold, distributed as the first `width` columns of a random n x n
    rotation, at O(n * width) memory."""
    width, trajectory, noise, extra = _RECIPES[spec.kind](spec)
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    ambient = deterministic_qr(rng.standard_normal((spec.n, width)))
    profiles = deterministic_qr(rng.standard_normal((spec.n_t, spec.mode_count)))
    directions = trajectory(ambient, rng)
    ladder = _ladder(spec.mode_count)
    ranges = _row_ranges(spec.n, spec.n_t)

    def noisy(block):
        z = rng.standard_normal(block.shape)
        z *= noise
        block += z
        return block

    def snapshot(lam):
        # scaled in place: each trajectory returns a fresh array
        scaled = directions(lam)
        scaled *= ladder
        for start, stop in ranges:
            # nothing here keeps a block once it is yielded, or its noise
            yield noisy(scaled[start:stop] @ profiles.T)

    manifest = {
        "schema": "gpm/1",
        "spec": spec.to_dict(),
        "rng": RNG_NAME,
        "singular_value_ladder": ladder.tolist(),
        **extra,
    }
    return manifest, ((lam, snapshot(lam)) for lam in spec.params)


def generate(spec):
    """The SynthFamily of spec: the row blocks `stream` gives of each
    snapshot, stacked, with the snapshots in a tuple."""
    manifest, snaps = stream(spec)
    snapshots = []
    for lam, blocks in snaps:
        data = np.vstack(tuple(blocks))
        # frozen here, so SnapshotMatrix keeps it instead of copying it
        data.setflags(write=False)
        snapshots.append(SnapshotMatrix(data=data, param=lam))
    return SynthFamily(spec=spec, snapshots=tuple(snapshots), manifest=manifest)
