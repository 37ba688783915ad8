"""gpmor's export list and the names its __init__ imports agree."""

import inspect

import gpmor


def test_every_exported_name_resolves():
    assert len(set(gpmor.__all__)) == len(gpmor.__all__)
    namespace = {}
    exec("from gpmor import *", namespace)
    assert all(namespace[name] is getattr(gpmor, name) for name in gpmor.__all__)


def test_every_public_class_and_function_is_exported():
    public = {name for name, obj in vars(gpmor).items()
              if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))}
    assert public and public <= set(gpmor.__all__)
