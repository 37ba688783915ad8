"""End-to-end and per-layer benchmark of the gpmor CLI pipeline (see README.md)."""
