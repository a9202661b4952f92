"""The public-API contract as one property.

Every public callable of ``roughpaths`` (and ``verify.run_suite``), called
with valid arguments except one, which takes a malformed value for its
role, returns a finite value or a valid object, or raises a
``RoughPathsError``; no warning escapes.  ``CALLS`` lists each callable with
one argument role per parameter and a valid value for it, and ``POOLS``
the malformed values of each role, on top of the values every role gets.
"""

import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughpaths as rp
from roughpaths import oracle, rde, tensor_core, verify

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
    "p": [0.5, 0, -1, np.float64(math.inf), 3],
    "q": [0.5, 0, np.float64(math.inf), 1],
    "level": [0, 3, 1.5, -1, 2.0],
    "depth": [0, 5, 2.5, -1, 2.0],
    "count": [0, -1, 2.5, 3.0],
    "index": [-1, 9, 2.5],
    "real": [-1.0, 0.0, 2],
    "increment": [[1e3, 2.0], [1.0]],
    "tensor": [G, X1],
    "element": [T, X1, rp.identity_element(2, 3)],
    "norm_kind": ["rieszv", rp.DistKind.RIESZ, rp.NormKind.QVAR, rp.NormKind.FRAC_SOBOLEV],
    "norm_spec": ["rieszv", rp.RdeConfig()],
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
    *((path.distance_block, {"lo": ("index", 0), "j0": ("index", 1), "j1": ("index", 5)})
      for path in (F, X1)),
    *((path.shift_distances, {"m": ("index", 1), "lo": ("index", 0), "hi": ("index", 4)})
      for path in (F, X1)),
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
            rp.NormSpec, rp.RdeConfig, rp.VectorField)


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
#: segment whose powers overflow, an element whose products, inverse and
#: level norms overflow, fields whose coefficients, values or derivatives
#: leave the float range, and Lip-norm balls on which |V| does.
BIG = rp.GroupElement(rp.TruncatedTensor(2, 2, (1.0, [1e200, 0.0], np.zeros((2, 2)))))
UNIT_QUAD = rp.VectorField.polynomial(np.zeros((1, 1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1, 1)))
HUGE_QUAD = rp.VectorField(rp.FieldFamily.POLYNOMIAL, 1, 1, np.zeros((1, 1)), np.zeros((1, 1, 1)),
                           np.full((1, 1, 1, 1), 1e308))
HUGE = [
    (rp.dilate, {"g": G, "lam": 1e300}),
    (rp.homogeneous_norm, {"g": BIG}),
    (rp.group_distance, {"g": BIG, "h": G}),
    (rp.segment_exp, {"delta": [1e200, 1.0], "depth": 3}),
    (rp.zero_tensor, {"dim": 1e300, "depth": 2}),
    (rp.TimeGrid.uniform, {"intervals": 1e300}),
    (FIELD.lip_norm, {"center": [0.1], "samples": 1e300}),
    (FIELD.lip_norm, {"center": [0.1], "radius": 1e300}),
    (FIELD.lip_norm, {"center": [1e300]}),
    (rp.grouplike_defect, {"g": BIG}),
    (rp.group_mul, {"g": BIG, "h": BIG}),
    (rp.tensor_mul, {"a": BIG.tensor, "b": BIG.tensor}),
    (rp.group_inverse, {"g": BIG}),
    (tensor_core.level_norms,
     {"g": rp.GroupElement(rp.TruncatedTensor(2, 1, (1.0, [1e200, 1e200])))}),
    (rp.VectorField.polynomial, {"constants": np.zeros((1, 1)), "matrices": np.zeros((1, 1, 1)),
                                 "quadratics": np.full((1, 1, 1, 1), 1e308)}),
    (rp.VectorField.polynomial(np.full((1, 1), 0.3), np.full((1, 1, 1), 0.3),
                               np.full((1, 1, 1, 1), 0.05)).value, {"y": [1e300]}),
    (UNIT_QUAD.jac, {"y": [1e308]}),
    (HUGE_QUAD.hess, {"y": [0.0]}),
    (FIELD.scaled(1e300).scaled, {"factor": 1e300}),
    (rde.max_point_norm, {"stack": np.full((2, 3), 1e300)}),
    (verify.field_distance, {"v1": FIELD, "v2": FIELD.scaled(2.0), "order": 1.5,
                             "center": [0.1], "radius": 1e300}),
]


@pytest.mark.parametrize("fn, kwargs", HUGE,
                         ids=[f"{fn.__qualname__}-{'-'.join(kw)}" for fn, kw in HUGE])
def test_huge_finite_arguments_raise_parameter_errors(fn, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rp.ParameterError):
            fn(**kwargs)


_FIELDS = {"v1": FIELD, "v2": FIELD, "order": 1.5, "center": [0.1], "radius": 1.0}

#: Counts whose tensor levels, grid points or sample points exceed
#: ``MAX_ENTRIES``: sizes beyond what NumPy could allocate, so that no call
#: tries to.
OVERSIZED = [
    (rp.zero_tensor, {"dim": 2**62, "depth": 1}),
    (rp.unit_tensor, {"dim": 2**62, "depth": 1}),
    (rp.identity_element, {"dim": 2**62, "depth": 1}),
    (rp.TimeGrid.uniform, {"intervals": 2**62}),
    *((rp.solve_bv, {"y0": [0.1], "v": FIELD, "x": F, "config": rp.RdeConfig(substeps=n)})
      for n in (2**50, 2**62)),
    (FIELD.lip_norm, {"center": [0.1], "samples": 2**50}),
    (verify.field_distance, {**_FIELDS, "samples": 2**50}),
]


@pytest.mark.parametrize("fn, kwargs", OVERSIZED, ids=[fn.__qualname__ for fn, _ in OVERSIZED])
def test_oversized_counts_raise_parameter_errors(fn, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rp.ParameterError, match="entries"):
            fn(**kwargs)


#: Count arguments of the reference helpers out of their range or not whole:
#: (helper, its valid arguments, the count, its value).
REFERENCE_COUNTS = [
    *((oracle.cc_norm_bruteforce, {"g": G}, name, value)
      for name, value in (("starts", 0), ("starts", 2.5), ("seed", -1), ("segments", 2.5),
                          ("segments", 1), ("segments", 33))),
    *((verify.field_distance, _FIELDS, name, value)
      for name, value in (("samples", -1), ("samples", 2.5), ("seed", -1))),
]


@pytest.mark.parametrize("fn, kwargs, name, value", REFERENCE_COUNTS,
                         ids=[f"{fn.__name__}-{name}={value}"
                              for fn, _, name, value in REFERENCE_COUNTS])
def test_reference_helper_counts_raise_parameter_errors(fn, kwargs, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rp.ParameterError, match=name):
            fn(**kwargs, **{name: value})


@pytest.mark.parametrize("depth", [True, False, 0, rp.MAX_DEPTH + 1])
def test_lift_rejects_the_depths_the_tensor_constructors_reject(depth):
    with pytest.raises(rp.ParameterError):
        rp.zero_tensor(2, depth)
    with pytest.raises(rp.ParameterError):
        rp.lift(F, depth)


#: Solver calls whose config is of the other scheme than the driver's.
OTHER_SCHEME = [
    (rp.solve_bv, F, ROUGH),
    (rp.solve_bv, F, rp.RdeConfig(depth=1, scheme=rp.Scheme.ROUGH_EULER)),
    (rp.solve_rough, X1, BV),
    (rp.ito_lyons, F, ROUGH),
    (rp.ito_lyons, X1, BV),
]


@pytest.mark.parametrize("fn, x, config", OTHER_SCHEME,
                         ids=[f"{fn.__name__}-{type(x).__name__}-{c.scheme.value}-{c.depth}"
                              for fn, x, c in OTHER_SCHEME])
def test_a_config_of_the_other_scheme_raises(fn, x, config):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rp.ParameterError, match="scheme"):
            fn([0.1], FIELD, x, config)


def _call_id(fn) -> str:
    """The test id of a callable: its qualified name, but a method bound to an
    instance named by the instance's class, as both path kinds share theirs."""
    if inspect.ismethod(fn) and not isinstance(fn.__self__, type):
        return f"{type(fn.__self__).__name__}.{fn.__name__}"
    return fn.__qualname__


@pytest.mark.parametrize("fn, params", CALLS, ids=[_call_id(fn) for fn, _ in CALLS])
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
