"""The frozen value types are slotted: no instance __dict__, no new attributes.

Python 3.10 is the oldest version whose dataclass takes slots=, and the CI
matrix runs this file there too.
"""

import copy
import dataclasses
import pickle

import pytest

from solidcyl.geometry import (
    CanonicalConfig,
    CylinderSpec,
    SignedTermList,
    SourcePoint,
    Term,
    TermKind,
    decompose,
)
from solidcyl.oracle import McEstimate
from solidcyl.solid_angle import EllipticParams, SolidAngle, omega_total, params_from_geometry
from solidcyl.verify import SuiteResult, run_suite


def _instances():
    cyl, src = CylinderSpec(2.0, 1.0), SourcePoint(3.0, -0.5)
    return {
        CylinderSpec: cyl,
        SourcePoint: src,
        CanonicalConfig: CanonicalConfig(1.5, 1.0, 2.0),
        Term: Term(-1, TermKind.CYL0, 0.5),
        SignedTermList: decompose(cyl, src),
        SolidAngle: omega_total(cyl, src),
        EllipticParams: params_from_geometry(CanonicalConfig(1.5, 1.0, 2.0)),
        McEstimate: McEstimate(0.25, 0.01, 1000, 7),
        SuiteResult: run_suite("agm", 5, 0),
    }


TYPES = list(_instances())


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_value_type_is_slotted_frozen_and_round_trips(cls):
    obj = _instances()[cls]
    assert type(obj) is cls
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls.__slots__ == names
    assert not hasattr(obj, "__dict__")

    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, names[0], getattr(obj, names[0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del obj.extra
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, names[0])

    copies = [
        copy.copy(obj),
        copy.deepcopy(obj),
        pickle.loads(pickle.dumps(obj, protocol=2)),
        pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)),
        dataclasses.replace(obj),
    ]
    for other in copies:
        assert type(other) is cls
        assert other == obj
        assert hash(other) == hash(obj)
