"""The plain records are named tuples: immutable, equal when their fields
are, written ``Name(field=value, ...)``, and copied by ``_replace``."""
import dataclasses
import math
from collections.abc import Mapping

import pytest

from meridian4 import (acceptance, diffkit, families, geometry, grids,
                       minkowski, natural_pde)
from meridian4.acceptance import Check, CriterionResult
from meridian4.diffkit import Interval, OdeSolution, SmoothFn1
from meridian4.families import FamilyVerdict
from meridian4.geometry import FrameAtPoint, InvariantReport, SurfaceJet
from meridian4.minkowski import FrameReport, Vec4M
from meridian4.natural_pde import (EquationResidual, GeometricFunctions,
                                   IsotropicChart, IsotropicFrame,
                                   ResidualReport)

#: Each record's fields in order, and its defaults.
RECORDS = {
    Check: ("name measured bound kind", {"kind": "<="}),
    CriterionResult: ("index name checks", {}),
    Interval: ("lo hi closed", {"lo": -math.inf, "hi": math.inf,
                                "closed": False}),
    SmoothFn1: ("eval_jet domain name expr",
                {"domain": Interval(), "name": "", "expr": None}),
    OdeSolution: ("phi u0 h values requested_end stopped_reason phi_evals",
                  {"stopped_reason": None, "phi_evals": 0}),
    FamilyVerdict: ("property_name max_violation tol passed grid details",
                    {"details": {}}),
    SurfaceJet: ("z z_u z_v z_uu z_uv z_vv z_uuu z_uuv z_uvv z_vvv", {}),
    FrameAtPoint: ("X Y N1 N2", {}),
    InvariantReport: ("E F G K K_perp h1 h2 H_norm_sq K_minus_H2 epsilon "
                      "causal_z_u causal_z_v", {}),
    Vec4M: ("x1 x2 x3 x4", {}),
    FrameReport: ("labels products target max_deviation tol passed", {}),
    GeometricFunctions: ("gamma1 gamma2 nu lambda1 mu1 lambda2 mu2 beta1 "
                         "beta2", {}),
    IsotropicFrame: ("x y n1 n2", {}),
    IsotropicChart: ("U name", {"name": ""}),
    EquationResidual: ("name max_abs rms gating", {"gating": True}),
    ResidualReport: ("system equations tol passed epsilon grid details",
                     {"epsilon": None, "grid": {}, "details": {}}),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_is_an_immutable_value(record):
    names, defaults = RECORDS[record]
    names = tuple(names.split())
    assert record._fields == names
    assert record._field_defaults == defaults
    values = [f"v{i}" for i in range(len(names))]
    rec = record(*values)

    with pytest.raises(AttributeError):
        setattr(rec, names[0], "w")
    assert rec == record(*values) and rec != record(*values[:-1], "w")
    assert repr(rec) == (f"{record.__name__}("
                         + ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
                         + ")")
    new = rec._replace(**{names[-1]: "w"})
    assert new == record(*values[:-1], "w") and type(new) is record
    assert list(rec) == values


@pytest.mark.parametrize("record", [FamilyVerdict, ResidualReport],
                         ids=lambda r: r.__name__)
def test_mapping_defaults_are_read_only(record):
    # one default object serves every instance, so none may change it
    mappings = [d for d in record._field_defaults.values()
                if isinstance(d, Mapping)]
    assert mappings
    for default in mappings:
        with pytest.raises(TypeError):
            default["key"] = 1.0


def test_only_classes_with_behaviour_are_dataclasses():
    # each dataclass costs about 0.7 ms of every CLI process's import
    modules = (acceptance, diffkit, families, geometry, grids, minkowski,
               natural_pde)
    found = {name for m in modules for name, obj in vars(m).items()
             if isinstance(obj, type) and obj.__module__ == m.__name__
             and dataclasses.is_dataclass(obj)}
    assert found == {"FamilySpec", "Grid2", "SphericalCurve",
                     "MeridianProfile", "MeridianSurface", "ScalarField2",
                     "Jet3", "SurfaceSample"}
