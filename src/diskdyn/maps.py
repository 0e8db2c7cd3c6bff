"""Holomorphic self-map families, evaluation, composition, validation.

Each family is a small frozen dataclass acting on raw coordinates:
a complex number for disk/half-plane maps, a 1-d complex array (z, w...) for
ball/Siegel maps.  Planar families broadcast over numpy arrays, which the
conjugation module relies on to push whole sample grids through an iterate.

The built-in families cover the dynamical taxonomy with closed-form oracles:

* ``DiskMoebius``            elliptic / hyperbolic disk automorphisms
* ``HalfplaneAffine``        lam*z + b: hyperbolic (lam != 1) or translation
* ``HalfplanePerturbed``     z + b + c/(z+1): non-automorphism parabolic maps
* ``SiegelTranslation``      (z, w) -> (z + b, w)
* ``HeisenbergTranslation``  parabolic ball automorphism with non-special orbits

``SiegelTranslation``, ``HeisenbergTranslation`` and their compositions are
the elements T(a, beta): (z, w) -> (z + 2<w, a> + ||a||^2 + beta, w + a) of the
Heisenberg translation group, where T(a1, b1) o T(a2, b2) = T(a1 + a2, b1 + b2
+ 2i Im<a2, a1>); ``HalfplaneAffine(1, b)`` is its N = 1 case T(0, b).  As
T(a, beta)^n = T(na, n beta), ``_block_fill`` writes a block of such an orbit
in closed form from the start and the step index: w_n = w_0 + n a, and
Re z_n = A_n + ||w_n||^2 with the margin A_n = A_0 + n Re beta, formed with the
``_norm2`` that the stopping rule reads back, so no rounding carries from step
to step.  Where a = 0, z_n is z_0 + n beta and w_0 is copied, which keeps the
sign of a zero.  Every other map is stepped one call at a time.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import ClassVar

import numpy as np

from .errors import EvaluationError, ModelMismatchError
from .geometry import MODELS, _coords, _margin, _norm2


@dataclass(frozen=True)
class DiskMoebius:
    """z -> e^{i theta} (z - a)/(1 - conj(a) z), an automorphism of the disk."""

    a: complex
    theta: float = 0.0
    model: ClassVar[str] = "disk"
    _rot: complex = field(init=False, repr=False, compare=False)
    _conj_a: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "_rot", np.exp(1j * self.theta))
        object.__setattr__(self, "_conj_a", np.conjugate(self.a))

    def __call__(self, z):
        return self._rot * (z - self.a) / (1.0 - self._conj_a * z)

    def params_ok(self) -> bool:
        return abs(self.a) < 1.0

    def is_automorphism(self) -> bool:
        return True


@dataclass(frozen=True)
class HalfplaneAffine:
    """z -> lam z + b with lam > 0, Re b >= 0."""

    lam: float
    b: complex = 0.0
    model: ClassVar[str] = "halfplane"

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "b", complex(self.b))

    def __call__(self, z):
        return self.lam * z + self.b

    def params_ok(self) -> bool:
        return self.lam > 0.0 and self.b.real >= 0.0

    def is_automorphism(self) -> bool:
        # lam z + b is onto H exactly when the boundary line is preserved
        return self.lam > 0.0 and self.b.real == 0.0


@dataclass(frozen=True)
class HalfplanePerturbed:
    """z -> z + b + c/(z + 1); parabolic for the reference parameter choices."""

    b: complex
    c: complex = 0.0
    model: ClassVar[str] = "halfplane"

    def __post_init__(self):
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))

    def __call__(self, z):
        return z + self.b + self.c / (z + 1.0)

    def params_ok(self) -> bool:
        if not (self.b.real >= 0.0 and self.c.real >= 0.0):
            return False
        # min over the boundary of Re(b + c/(z+1)) is Re b + (Re c - |c|)/2
        return self.b.real + (self.c.real - abs(self.c)) / 2.0 >= 0.0

    def is_automorphism(self) -> bool:
        return self.c == 0.0 and self.b.real == 0.0


@dataclass(frozen=True)
class SiegelTranslation:
    """(z, w) -> (z + b, w) with Re b >= 0."""

    b: complex
    model: ClassVar[str] = "siegel"

    def __post_init__(self):
        object.__setattr__(self, "b", complex(self.b))

    def __call__(self, pt):
        out = np.array(pt, np.complex128)
        out[0] += self.b
        return out

    def params_ok(self) -> bool:
        return self.b.real >= 0.0

    def is_automorphism(self) -> bool:
        return self.b.real == 0.0


@dataclass(frozen=True)
class HeisenbergTranslation:
    """(z, w) -> (z + 2<w, a> + ||a||^2 + i b, w + a); always an automorphism."""

    a: tuple = (0j,)
    b: float = 0.0
    model: ClassVar[str] = "siegel"
    _a_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _shift: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(x) for x in self.a))
        object.__setattr__(self, "b", float(self.b))
        arr = np.array(self.a, np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "_a_arr", arr)
        object.__setattr__(
            self, "_shift", float(np.sum(np.abs(arr) ** 2)) + 1j * self.b
        )

    def __call__(self, pt):
        z, *w = np.asarray(pt, np.complex128).tolist()
        re, im = _inner(w, self.a)
        z = z + complex(2.0 * re, 2.0 * im) + self._shift
        return np.array([z] + [wj + aj for wj, aj in zip(w, self.a)])

    def params_ok(self) -> bool:
        return True

    def is_automorphism(self) -> bool:
        return True


@dataclass(frozen=True)
class Identity:
    """Identity map of any model; handy for composition tests."""

    model_tag: str = "halfplane"

    def __post_init__(self):
        MODELS[self.model_tag]  # raises ModelMismatchError for an unknown name

    @property
    def model(self) -> str:
        return self.model_tag

    def __call__(self, pt):
        return pt

    def params_ok(self) -> bool:
        return True

    def is_automorphism(self) -> bool:
        return True


@dataclass(frozen=True)
class Composition:
    """parts[0] o parts[1] o ... ; the last part is applied first."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ModelMismatchError("empty composition")
        models = {p.model for p in parts}
        if len(models) != 1:
            raise ModelMismatchError(f"mixed models in composition: {sorted(models)}")
        object.__setattr__(self, "parts", parts)

    @property
    def model(self) -> str:
        return self.parts[0].model

    def __call__(self, pt):
        for f in reversed(self.parts):
            pt = f(pt)
        return pt

    def params_ok(self) -> bool:
        return all(p.params_ok() for p in self.parts)

    def is_automorphism(self) -> bool:
        return all(p.is_automorphism() for p in self.parts)


@dataclass(frozen=True)
class Conjugated:
    """View a map in the Cayley-partner model (disk<->halfplane, ball<->siegel)."""

    inner: object

    @property
    def model(self) -> str:
        return MODELS[self.inner.model].partner

    def __call__(self, pt):
        # one of the two models is bounded, and its half of the pair is the identity
        inner = MODELS[self.inner.model]
        outer = MODELS[inner.partner]
        return outer.from_ball(inner.to_ball(self.inner(inner.from_ball(outer.to_ball(pt)))))

    def params_ok(self) -> bool:
        return self.inner.params_ok()

    def is_automorphism(self) -> bool:
        return self.inner.is_automorphism()


def _inner(w, a):
    """<w, a> = sum_j w[j] conj(a[j]) as (real, imag), in plain float arithmetic, j in order."""
    if len(w) != len(a):
        raise ValueError(f"w has {len(w)} coordinates, a has {len(a)}")
    re = im = 0.0
    for wj, aj in zip(w, a):
        re = re + (wj.real * aj.real + wj.imag * aj.imag)
        im = im + (wj.imag * aj.real - wj.real * aj.imag)
    return re, im


def _group_element(spec):
    """(a, beta) with spec = T(a, beta), or None for a map outside the translation group.

    a is None for the T(0, beta) that acts on points of any N.
    """
    if isinstance(spec, Composition) and spec.model == "siegel":
        a, beta = None, 0j
        for g in map(_group_element, spec.parts):
            if g is None:
                return None
            a2, beta2 = g
            if a is not None and a2 is not None:  # _inner raises ValueError for parts of two N
                beta += complex(0.0, 2.0 * _inner(a2, a)[1])
                a = a + a2
            elif a is None:
                a = a2
            beta += beta2
        return a, beta
    if isinstance(spec, HeisenbergTranslation):
        a, beta = spec._a_arr, complex(0.0, spec.b)
    elif isinstance(spec, SiegelTranslation) or (isinstance(spec, HalfplaneAffine) and spec.lam == 1.0):
        a, beta = None, spec.b
    else:
        return None
    return (a, beta) if np.isfinite([beta, *(() if a is None else a)]).all() else None


def _block_fill(spec, start):
    """fill(t, out), which writes points t + 1 .. t + len(out) of the orbit of start into out, or None.

    start is a point, or for the half-plane a row (k,) of points and out (m, k).
    The half-plane translation needs Re z > 0 at every point of start.
    """
    g = _group_element(spec)
    planar = MODELS[spec.model].planar
    if g is None or (planar and not np.all(np.real(start) > 0.0)):
        return None
    a, beta = g
    z0, w0 = (start, None) if planar else (start[0], start[1:])
    if a is not None:  # z0 + n beta: the margin A_0 + n Re beta and Im z_0 + n Im(2<w_0, a> + beta)
        z0 = complex(_margin(z0.real, w0[None])[0], z0.imag)
        beta = complex(beta.real, 2.0 * _inner(w0, a)[1] + beta.imag)
    return partial(_fill_block, spec, z0, beta, w0, a)


# an overflow gives inf, and the calls past it NaN, silently as the one-point calls do
@np.errstate(over="ignore", invalid="ignore")
def _fill_block(spec, z0, beta, w0, a, t, out):
    """Write points t + 1 .. t + m of the orbit into out (m, ...): z = z0 + n beta, w = w0 + n a.

    With a given, z0 + n beta is the margin and Im z, and Re z gets ||w||^2 added.
    Past a point that is not finite the block steps by calls, as the per-step loop does.
    """
    m = len(out)
    n = np.arange(t + 1.0, t + m + 1.0)
    z = out if w0 is None else out[:, 0]
    np.multiply(n.reshape((m,) + (1,) * np.ndim(z0)), beta, out=z)
    z += z0
    if a is not None:
        w = out[:, 1:]
        np.multiply(n[:, None], a, out=w)
        w += w0
        np.add(z.real, _norm2(w), out=z.real)
    elif w0 is not None:
        out[:, 1:] = w0
    if not np.isfinite(out[-1]).all():  # a coordinate that overflows stays non-finite
        j = int(np.isfinite(out.reshape(m, -1)).all(axis=1).argmin())
        pt = out[j] if out.ndim > 1 else complex(out[j])
        for i in range(j + 1, m):
            out[i] = pt = spec(pt)


FAMILIES = {
    "DiskMoebius": DiskMoebius,
    "HalfplaneAffine": HalfplaneAffine,
    "HalfplanePerturbed": HalfplanePerturbed,
    "SiegelTranslation": SiegelTranslation,
    "HeisenbergTranslation": HeisenbergTranslation,
    "Identity": Identity,
    "Composition": Composition,
    "Conjugated": Conjugated,
}


# ---------------------------------------------------------------------------
# evaluation / composition


def domain_margin(model: str, pt) -> float:
    """The model-defining functional: positive iff pt is interior."""
    return MODELS[model].margin(pt)


def evaluate(spec, pt):
    """Apply spec to a point of its model; checks that the image stays inside."""
    out = spec(_coords(spec.model, pt))
    m = domain_margin(spec.model, out)
    if not m > 0.0:
        raise EvaluationError(f"image left the {spec.model} domain", margin=m)
    return out


def compose(f, g) -> Composition:
    """f o g; evaluate(compose(f, g), p) == evaluate(f, evaluate(g, p)).

    Maps of two models raise ModelMismatchError, from Composition.
    """
    parts = []
    for h in (f, g):
        parts.extend(h.parts if isinstance(h, Composition) else [h])
    return Composition(tuple(parts))


# ---------------------------------------------------------------------------
# validity checking


@dataclass(frozen=True)
class ValidityReport:
    analytic_ok: bool
    sampled_ok: bool
    worst_margin: float
    samples: int


def sample_domain(model: str, count: int, rng: np.random.Generator, dim: int = 2):
    """Random interior points; half-plane coordinates span several decades."""
    m = MODELS[model]
    if m.planar and not m.unbounded:  # disk
        r = np.sqrt(rng.uniform(0.0, 0.96, count))
        phi = rng.uniform(-np.pi, np.pi, count)
        return r * np.exp(1j * phi)
    if m.planar:  # half-plane
        x = np.exp(rng.uniform(-2.0, 6.0, count))
        y = rng.normal(0.0, 5.0, count) * x
        return x + 1j * y
    if not m.unbounded:  # ball
        v = rng.normal(size=(count, 2 * dim)).view(np.complex128)
        nrm = np.linalg.norm(v, axis=1, keepdims=True)
        rad = rng.uniform(0.0, 0.98, (count, 1)) ** (1.0 / (2 * dim))
        return v / nrm * rad
    w = rng.normal(size=(count, 2 * (dim - 1))).view(np.complex128)  # Siegel
    wn2 = -_margin(0.0, w)  # ||w||^2 by the formula that Model.margin reads back
    x = wn2 + np.exp(rng.uniform(-2.0, 4.0, count))
    y = rng.normal(0.0, 2.0, count) * (1.0 + np.sqrt(wn2))
    return np.concatenate(((x + 1j * y)[:, None], w), axis=1)


def fixed_dim(spec):
    """The N of the ball/Siegel points spec acts on, or None when any N will do."""
    if isinstance(spec, HeisenbergTranslation):
        return len(spec.a) + 1
    if isinstance(spec, Conjugated):
        return fixed_dim(spec.inner)
    if isinstance(spec, Composition):
        return next((n for n in map(fixed_dim, spec.parts) if n is not None), None)
    return None


def validate_self_map(spec, sample_count: int = 500, seed: int = 0) -> ValidityReport:
    """Check the family's parameter constraints and sample the domain margin."""
    analytic = spec.params_ok()
    rng = np.random.default_rng(seed)
    pts = sample_domain(spec.model, sample_count, rng, fixed_dim(spec) or 2)
    worst = np.inf
    ok = True
    for pt in pts:
        try:
            img = spec(pt)
            m = domain_margin(spec.model, img)
        except (ZeroDivisionError, FloatingPointError, ValueError):
            m = -np.inf
        if not np.isfinite(m):
            m = -np.inf
        worst = min(worst, m)
        if m <= 0.0:
            ok = False
    return ValidityReport(analytic, ok, float(worst), sample_count)


# ---------------------------------------------------------------------------
# serialization: plain JSON-compatible dictionaries, bit-exact round trips


# the dict key of a field, where it is not the field's name
_KEYS = {"model_tag": "model"}
# _encode and _decode dispatch on a field's annotation, a string such as
# "complex" under this module's postponed annotations


def _encode(kind: str, v):
    if kind == "complex":
        return [v.real, v.imag]
    if kind == "object":
        return spec_to_dict(v)
    if kind == "tuple":  # of complex numbers or of specs
        return [_encode("complex" if isinstance(x, complex) else "object", x) for x in v]
    return v


def _decode(kind: str, v):
    if kind == "complex":
        return complex(v[0], v[1])
    if kind == "object":
        return spec_from_dict(v)
    if kind == "tuple":
        return tuple(_decode("object" if isinstance(x, dict) else "complex", x) for x in v)
    return v


def spec_to_dict(spec) -> dict:
    fam = next((name for name, cls in FAMILIES.items() if isinstance(spec, cls)), None)
    if fam is None:
        raise ModelMismatchError(f"cannot serialize {type(spec).__name__}")
    d = {"family": fam}
    for f in fields(spec):
        if f.init:
            d[_KEYS.get(f.name, f.name)] = _encode(f.type, getattr(spec, f.name))
    return d


def spec_from_dict(d: dict):
    """A spec_to_dict dict's spec; a missing optional key takes its default, an unknown key raises."""
    fam = d.get("family")
    if fam not in FAMILIES:
        raise ModelMismatchError(f"unknown family {fam!r}")
    params = {_KEYS.get(f.name, f.name): f for f in fields(FAMILIES[fam]) if f.init}
    unknown = sorted(set(d) - set(params) - {"family"})
    if unknown:
        raise ModelMismatchError(f"{fam} has no parameter {unknown}; it has {sorted(params)}")
    kwargs = {}
    for key, f in params.items():
        required = f.default is MISSING and f.default_factory is MISSING
        if key in d or required:  # a missing required key raises KeyError
            kwargs[f.name] = _decode(f.type, d[key])
    return FAMILIES[fam](**kwargs)
