"""The public-API contract as one property.

Every public callable of ``roughpaths`` (and ``verify.run_suite``), called
with valid arguments except one, which takes a malformed value for its
role, returns a finite value or a valid object, or raises a
``RoughPathsError``; no warning escapes.  ``CALLS`` lists each callable with
one argument role per parameter and a valid value for it, and ``POOLS``
the malformed values of each role, on top of the values every role gets.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpaths as rp
from roughpaths import verify

GRID = rp.TimeGrid.uniform(4)
F = rp.EuclideanPath(GRID, [[0.0, 0.0], [1.0, 0.3], [0.5, 0.1], [0.2, 0.4], [0.9, 0.2]])
F2 = rp.EuclideanPath(GRID, [[0.0, 0.0], [0.8, 0.2], [0.5, 0.1], [0.1, 0.4], [0.9, 0.3]])
X1, X2 = rp.lift(F, 2), rp.lift(F2, 2)
OTHER = rp.lift(rp.EuclideanPath(rp.TimeGrid([0.0, 0.5, 2.0]), np.zeros((3, 2))), 2)
G = rp.signature(X1)
T = G.tensor
ZEROS = {shape: np.zeros(shape) for shape in ((2, 1), (2, 1, 1, 1))}
FIELD = rp.VectorField.linear(np.full((2, 1, 1), 0.1))
SPEC = {"family": "linear", "m": 1, "n": 2, "coefficients": {"matrices": [[[0.1]], [[0.1]]]}}
BV, ROUGH = rp.RdeConfig(), rp.RdeConfig(depth=2, scheme=rp.Scheme.ROUGH_EULER)

#: Values that every role is fed.
COMMON = ["x", "", None, True, False, math.nan, math.inf, -math.inf, np.float64(math.nan),
          np.array(0.5), np.zeros((2, 2)), np.zeros((2, 2, 2)), [[1.0], [1.0, 2.0]], [],
          object()]

#: Malformed (or merely unusual) values of each role.
POOLS = {
    "times": [[[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0, 1.0], [0.5, 1.0], [0.0]],
    "values": [np.zeros((3, 2)), np.zeros((5, 0)), "abc"],
    "levels": [(np.ones((5, 1)),), X1.levels[:2], (np.ones((5, 1)), np.ones((5, 2)), np.ones(5))],
    "elements": [[T] * 5, "abcde", X1.values[:3]],
    "grid": [[0.0, 0.25, 0.5, 0.75, 1.0], "xyz", F],
    "path": [GRID, G, X1],
    "euclidean": [X1, GRID],
    "group": [F, GRID, rp.lift(F, 1), OTHER],
    "driver": [X1, GRID, G],
    "interval": [(0.0,), (0.0, "x"), (1.0, 0.0), (0.3, 0.7), (0.0, 0.25, 0.5), "ab", 5,
                 (None, None), (0.0, math.nan), (0.0, 2.0), (0.25, 0.75)],
    "delta": [0.0, -0.5, 1.5, 2, 1],
    "p": [0.5, 0, -1, rp.P_INF, 3],
    "q": [0.5, 0, rp.P_INF, 1],
    "level": [0, 3, 1.5, -1, 2.0],
    "depth": [0, 5, 2.5, -1, 2.0],
    "count": [0, -1, 2.5, 3.0],
    "index": [-1, 9, 2.5],
    "real": [-1.0, 0.0, 2],
    "increment": [[1e3, 2.0], [1.0]],
    "tensor": [G, X1],
    "element": [T, X1, rp.identity_element(2, 3)],
    "norm_kind": ["rieszv", rp.DistKind.RIESZ, rp.NormKind.QVAR, rp.NormKind.FRAC_SOBOLEV],
    "norm_spec": ["rieszv", rp.LevelDistanceSpec(rp.DistKind.RIESZ, 0.5, 4.0)],
    "dist_kind": ["riesz", rp.NormKind.RIESZ, rp.DistKind.QVAR, rp.DistKind.NIKOLSKII_HAT],
    "family": ["linear", rp.FieldFamily.AFFINE],
    "scheme": ["eulerbv", rp.Scheme.ROUGH_EULER],
    "array": [[1.0, 2.0], "abc", np.zeros((2, 1, 2)), np.ones((1, 1, 1, 1))],
    "field": [F, SPEC],
    "field_spec": [{"family": "linear"}, {"family": "x"}, {**SPEC, "coefficients": []},
                   {**SPEC, "family": "polynomial", "n": "x"}, {**SPEC, "box_radius": "a"}],
    "state": [[1.0, 2.0], [math.nan]],
    "config": [BV, ROUGH, "eulerbv"],
    "suite": ["nope", 3, ["algebra"]],
    "seed": [-1, 2.5, 2.0],
}
POOLS = {role: COMMON + values for role, values in POOLS.items()}
# a directory that cannot be made, so that no suite ever runs: every value
# either is rejected or fails to make it
POOLS["out_dir"] = [3, 2.5, True, np.zeros(2), [["a"]], Path(__file__) / "reports"]

_NORM = {"path": ("path", F), "delta": ("delta", 0.5), "p": ("p", 4.0),
         "interval": ("interval", None)}
_RHO = {"x1": ("group", X1), "x2": ("group", X2), "delta": ("delta", 0.5), "p": ("p", 4.0),
        "k": ("level", 1), "interval": ("interval", None)}
_FIELD_SCALARS = {"gamma": ("real", 2.5), "box_radius": ("real", 10.0)}

#: (callable, {parameter: (role, valid value)}).
CALLS = [
    (rp.TimeGrid, {"times": ("times", [0.0, 0.5, 1.0])}),
    (rp.TimeGrid.uniform, {"intervals": ("count", 4), "horizon": ("real", 1.0)}),
    (GRID.index_of, {"t": ("real", 0.25)}),
    (GRID.resolve_interval, {"interval": ("interval", (0.25, 0.75))}),
    (rp.EuclideanPath, {"grid": ("grid", GRID), "values": ("values", F.values)}),
    (rp.GroupPath, {"grid": ("grid", GRID), "levels": ("levels", X1.levels)}),
    (rp.GroupPath.from_elements, {"grid": ("grid", GRID), "elements": ("elements", X1.values)}),
    (rp.lift, {"path": ("euclidean", F), "depth": ("depth", 2)}),
    (rp.increment, {"x": ("group", X1), "i": ("index", 1), "j": ("index", 3)}),
    (rp.signature, {"x": ("group", X1)}),
    (rp.level1_path, {"x": ("group", X1)}),
    (rp.resample_uniform, {"path": ("euclidean", F), "intervals": ("count", 3)}),
    (rp.time_reversed, {"path": ("euclidean", F)}),
    (rp.TruncatedTensor, {"dim": ("count", 2), "depth": ("depth", 2),
                          "levels": ("levels", T.levels)}),
    (rp.GroupElement, {"tensor": ("tensor", T)}),
    (rp.zero_tensor, {"dim": ("count", 2), "depth": ("depth", 2)}),
    (rp.unit_tensor, {"dim": ("count", 2), "depth": ("depth", 2)}),
    (rp.identity_element, {"dim": ("count", 2), "depth": ("depth", 2)}),
    (rp.segment_exp, {"delta": ("increment", [1.0, 2.0]), "depth": ("depth", 2)}),
    (rp.tensor_mul, {"a": ("tensor", T), "b": ("tensor", T)}),
    (rp.group_mul, {"g": ("element", G), "h": ("element", G)}),
    (rp.group_inverse, {"g": ("element", G)}),
    (rp.dilate, {"g": ("element", G), "lam": ("real", 2.0)}),
    (rp.homogeneous_norm, {"g": ("element", G)}),
    (rp.group_distance, {"g": ("element", G), "h": ("element", G)}),
    (rp.grouplike_defect, {"g": ("element", G)}),
    (rp.holder_norm, {k: _NORM[k] for k in ("path", "delta", "interval")}),
    (rp.qvar_norm, {"path": ("path", F), "q": ("q", 2.0), "interval": ("interval", None)}),
    *((fn, _NORM) for fn in (rp.riesz_norm, rp.mixed_norm, rp.nikolskii_norm,
                             rp.refined_nikolskii_norm)),
    (rp.frac_sobolev_norm, {**_NORM, "p": ("p", 2.0)}),
    (rp.NormSpec, {"kind": ("norm_kind", rp.NormKind.RIESZ), "delta": ("delta", 0.5),
                   "p": ("p", 4.0), "interval": ("interval", None)}),
    (rp.compute_norm, {"path": ("path", F),
                       "spec": ("norm_spec", rp.NormSpec(rp.NormKind.RIESZ, 0.5, 4.0))}),
    (rp.LevelDistanceSpec, {"kind": ("dist_kind", rp.DistKind.RIESZ), "delta": ("delta", 0.5),
                            "p": ("p", 4.0), "level": ("level", 1)}),
    (rp.rho_qvar_level, {"x1": _RHO["x1"], "x2": _RHO["x2"], "q": ("q", 2.0),
                         "k": _RHO["k"], "interval": _RHO["interval"]}),
    *((fn, _RHO) for fn in (rp.rho_riesz_level, rp.rho_mixed_level, rp.rho_nikolskii_hat_level)),
    (rp.rho_level, {**_RHO, "kind": ("dist_kind", rp.DistKind.RIESZ)}),
    (rp.rho_aggregate, {**{k: _RHO[k] for k in ("x1", "x2", "delta", "p", "interval")},
                        "kind": ("dist_kind", rp.DistKind.RIESZ)}),
    (rp.RdeConfig, {"depth": ("depth", 1), "substeps": ("count", 2),
                    "scheme": ("scheme", rp.Scheme.EULER_BV)}),
    (rp.VectorField, {"family": ("family", rp.FieldFamily.LINEAR), "m": ("count", 1),
                      "n": ("count", 2), "const": ("array", ZEROS[2, 1]),
                      "lin": ("array", FIELD.lin), "quad": ("array", ZEROS[2, 1, 1, 1]),
                      **_FIELD_SCALARS}),
    (rp.VectorField.linear, {"matrices": ("array", FIELD.lin), **_FIELD_SCALARS}),
    (rp.VectorField.affine, {"matrices": ("array", FIELD.lin), "offsets": ("array", ZEROS[2, 1]),
                             **_FIELD_SCALARS}),
    (rp.VectorField.polynomial, {"constants": ("array", ZEROS[2, 1]),
                                 "matrices": ("array", FIELD.lin),
                                 "quadratics": ("array", ZEROS[2, 1, 1, 1]), **_FIELD_SCALARS}),
    (rp.VectorField.from_spec, {"spec": ("field_spec", SPEC)}),
    (FIELD.lip_norm, {"center": ("state", [0.1]), "radius": ("real", 1.0),
                      "samples": ("count", 8), "seed": ("seed", 0)}),
    (FIELD.derivative_defect, {"points": ("array", [[0.1], [0.3]]), "h": ("real", 1e-5)}),
    (rp.solve_bv, {"y0": ("state", [0.1]), "v": ("field", FIELD), "x": ("euclidean", F),
                   "config": ("config", BV)}),
    (rp.solve_rough, {"y0": ("state", [0.1]), "v": ("field", FIELD), "x": ("group", X1),
                      "config": ("config", ROUGH)}),
    (rp.ito_lyons, {"y0": ("state", [0.1]), "v": ("field", FIELD), "x": ("driver", F),
                    "config": ("config", None)}),
    (verify.run_suite, {"name": ("suite", "algebra"), "seed": ("seed", 0),
                        "out_dir": ("out_dir", Path(__file__))}),
]

_OBJECTS = (rp.TimeGrid, rp.EuclideanPath, rp.GroupPath, rp.TruncatedTensor, rp.GroupElement,
            rp.NormSpec, rp.LevelDistanceSpec, rp.RdeConfig, rp.VectorField)


def _acceptable(result) -> bool:
    """A finite number or array, a library object, or a tuple of them."""
    if isinstance(result, tuple):
        return all(_acceptable(r) for r in result)
    if isinstance(result, _OBJECTS):
        return True
    return (isinstance(result, (int, float, np.number, np.ndarray)) and not isinstance(result, bool)
            and bool(np.isfinite(result).all()))


def call_with(fn, params, target, value):
    """Call ``fn`` with the valid arguments of ``params``, ``target`` set to
    ``value``, warnings raised as errors; returns the result or the
    ``RoughPathsError`` raised."""
    kwargs = {name: valid for name, (_, valid) in params.items()}
    kwargs[target] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(**kwargs)
        except rp.RoughPathsError as exc:
            return exc


@st.composite
def malformed_calls(draw):
    fn, params = draw(st.sampled_from(CALLS))
    target = draw(st.sampled_from(sorted(params)))
    value = draw(st.sampled_from(POOLS[params[target][0]]))
    return fn, params, target, value


#: Huge finite arguments: counts beyond ``sys.maxsize``, a dilation and a
#: segment whose powers overflow, and Lip-norm balls on which |V| leaves the
#: float range.
HUGE = [
    (rp.dilate, {"g": G, "lam": 1e300}),
    (rp.segment_exp, {"delta": [1e200, 1.0], "depth": 3}),
    (rp.zero_tensor, {"dim": 1e300, "depth": 2}),
    (rp.TimeGrid.uniform, {"intervals": 1e300}),
    (FIELD.lip_norm, {"center": [0.1], "samples": 1e300}),
    (FIELD.lip_norm, {"center": [0.1], "radius": 1e300}),
    (FIELD.lip_norm, {"center": [1e300]}),
]


@pytest.mark.parametrize("fn, kwargs", HUGE,
                         ids=[f"{fn.__qualname__}-{'-'.join(kw)}" for fn, kw in HUGE])
def test_huge_finite_arguments_raise_parameter_errors(fn, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rp.ParameterError):
            fn(**kwargs)


@pytest.mark.parametrize("fn, params", CALLS, ids=[fn.__qualname__ for fn, _ in CALLS])
def test_valid_arguments_are_accepted(fn, params):
    result = call_with(fn, params, next(iter(params)), next(iter(params.values()))[1])
    if fn is verify.run_suite:  # its output directory is a file, so that no suite runs
        assert isinstance(result, rp.ParameterError)
    else:
        assert _acceptable(result), result


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(malformed_calls())
def test_public_calls_return_finite_values_or_raise_typed_errors(case):
    fn, params, target, value = case
    result = call_with(fn, params, target, value)
    assert isinstance(result, rp.RoughPathsError) or _acceptable(result), result
