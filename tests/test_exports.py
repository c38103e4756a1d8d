import inspect

import msfnet
from msfnet import errors


def test_every_exported_name_resolves():
    for name in msfnet.__all__:
        assert hasattr(msfnet, name), name
    assert len(set(msfnet.__all__)) == len(msfnet.__all__)


def test_every_error_class_is_exported():
    classes = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, errors.MsfnetError)}
    assert "MsfnetError" in classes
    for name in classes:
        assert name in msfnet.__all__, name
        assert getattr(msfnet, name) is getattr(errors, name)
