import dataclasses
import typing

import brpmarket


def test_every_exported_name_resolves():
    missing = [name for name in brpmarket.__all__ if not hasattr(brpmarket, name)]
    assert missing == []
    assert len(set(brpmarket.__all__)) == len(brpmarket.__all__)


def test_dataclass_type_hints_resolve():
    # every annotation names a type its module imports
    classes = [getattr(brpmarket, name) for name in brpmarket.__all__]
    dataclass_types = [cls for cls in classes
                       if isinstance(cls, type) and dataclasses.is_dataclass(cls)]
    assert len(dataclass_types) == 12
    for cls in dataclass_types:
        assert typing.get_type_hints(cls)
