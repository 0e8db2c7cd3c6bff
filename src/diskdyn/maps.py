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

``SiegelTranslation``, ``HeisenbergTranslation``, any ``Composition`` of
them, and ``HalfplaneAffine`` with lam = 1 also step a whole block of an orbit
at once (their private ``_block``, which ``dynamics.iterate`` uses).  The
half-plane translation's block, ``_shift_block``, takes one point or a row of
points, so ``conjugation`` steps its whole sample grid with it too.  The
translations move w by a fixed ``a`` and z by terms known from w, so every
coordinate of the block is a running sum of per-step terms.
``np.add.accumulate`` adds those terms one after the other, in the order
``__call__`` adds them, and a step that leaves w alone copies it; the block
therefore holds the points that step-by-step calls give, bit for bit.  For
``HalfplaneAffine(1, b)`` the step is ``1.0 * z + b``, and the product is z
itself for every finite z with Re z > 0, except that CPython before 3.14
multiplies as complex numbers and turns an Im z of -0.0 into +0.0.  The block makes its
first step by a call; under that rule no later point has an Im z of -0.0,
since a sum is -0.0 only when both terms are, so the running sum of b from
there matches the calls bit for bit.  A row of points steps element by
element, and numpy multiplies it as complex numbers too, so the same holds
for a row whose points all have Re z > 0.  Every other map is stepped one
call at a time.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import ClassVar

import numpy as np

from .errors import DomainError, EvaluationError, ModelMismatchError
from .geometry import MODELS


def _c(x) -> complex:
    return complex(x)


@dataclass(frozen=True)
class DiskMoebius:
    """z -> e^{i theta} (z - a)/(1 - conj(a) z), an automorphism of the disk."""

    a: complex
    theta: float = 0.0
    model: ClassVar[str] = "disk"
    _rot: complex = field(init=False, repr=False, compare=False)
    _conj_a: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _c(self.a))
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
        object.__setattr__(self, "b", _c(self.b))

    def __call__(self, z):
        return self.lam * z + self.b

    @property
    def _block(self):
        """The running-sum block method of a translation (lam = 1, finite b); None otherwise."""
        return self._shift_block if self.lam == 1.0 and np.isfinite(self.b) else None

    def _shift_block(self, cur, out):
        """Fill out (m,) or (m, k) with the m points of the orbit of z + b after cur.

        cur is one point, or a row (k,) of points for an (m, k) block.
        """
        # an overflow gives inf and then NaN, silently as the one-point calls do
        with np.errstate(over="ignore", invalid="ignore"):
            z = self(cur if isinstance(cur, np.ndarray) else complex(cur))
            out[0] = z
            out[1:] = self.b
            np.add.accumulate(out, axis=0, out=out)
            if not np.isfinite(out[-1:]).all():
                # past an overflow 1.0 * z changes z (1 * inf - 0 * y is NaN): step by calls
                for j in range(1, len(out)):
                    z = self(z)
                    out[j] = z

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
        object.__setattr__(self, "b", _c(self.b))
        object.__setattr__(self, "c", _c(self.c))

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
        object.__setattr__(self, "b", _c(self.b))

    def __call__(self, pt):
        out = np.array(pt, np.complex128)
        out[0] += self.b
        return out

    def _block(self, cur, out):
        _translate_block((self,), cur, out)

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
        object.__setattr__(self, "a", tuple(_c(x) for x in self.a))
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

    def _block(self, cur, out):
        _translate_block((self,), cur, out)

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

    @property
    def _block(self):
        """The block method of the composed translations; None unless every part has one."""
        steps = _translations(self)
        return None if steps is None else partial(_translate_block, steps)

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
    """<w, a> = sum_j w[j] conj(a[j]) as (real, imag).

    Each w[j] is a number, or an array for a block of points.  Plain float
    arithmetic, j in order, so that one point and a block of points round
    alike; np.vdot's BLAS kernel rounds its own way for len(a) > 1.
    """
    if len(w) != len(a):
        raise ValueError(f"w has {len(w)} coordinates, a has {len(a)}")
    re = im = 0.0
    for wj, aj in zip(w, a):
        re = re + (wj.real * aj.real + wj.imag * aj.imag)
        im = im + (wj.imag * aj.real - wj.real * aj.imag)
    return re, im


def _translations(spec):
    """The Siegel/Heisenberg translations spec applies, first applied first, or None."""
    if isinstance(spec, (SiegelTranslation, HeisenbergTranslation)):
        return (spec,)
    if isinstance(spec, Composition):
        parts = [_translations(p) for p in reversed(spec.parts)]
        if all(p is not None for p in parts):
            return sum(parts, ())
    return None


def _translate_block(steps, cur, out):
    """Fill out (m, N) with the m points after cur (N,) of the orbit of steps.

    One orbit step applies the translations of steps in order.  Every w and
    z is a running sum taken with np.add.accumulate, which adds in sequence;
    its terms come in the order the ``__call__`` methods add them.
    """
    m = out.shape[0]
    moves = [s._a_arr for s in steps if isinstance(s, HeisenbergTranslation)]
    h = len(moves)
    # ws[k h + i] is w before the i-th w-moving translation of step k
    ws = np.empty((m * h + 1, cur.size - 1), np.complex128)
    ws[0] = cur[1:]
    if h:
        ws[1:].reshape(m, h, cur.size - 1)[:] = moves
        np.add.accumulate(ws, axis=0, out=ws)
    terms = []  # the z terms of one step, in the order __call__ adds them
    i = 0
    for s in steps:
        if isinstance(s, HeisenbergTranslation):
            re, im = _inner(ws[i:-1:h].T, s.a)
            t = np.empty(m, np.complex128)
            t.real, t.imag = 2.0 * re, 2.0 * im
            terms += [t, s._shift]
            i += 1
        else:
            terms.append(s.b)
    zs = np.empty(m * len(terms) + 1, np.complex128)
    zs[0] = cur[0]
    for c, t in enumerate(terms):
        zs[1 + c :: len(terms)] = t
    np.add.accumulate(zs, out=zs)
    out[:, 0] = zs[len(terms) :: len(terms)]
    out[:, 1:] = ws[h::h] if h else cur[1:]  # a copy keeps the sign of a zero


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
    model = MODELS[spec.model]
    pt = model.point(pt)
    if not model.contains(pt):
        raise DomainError(f"point outside the {spec.model} domain")
    out = spec(pt)
    m = model.margin(out)
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
    wn2 = np.sum(np.abs(w) ** 2, axis=1).real
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
    """The spec of a spec_to_dict dict; a missing optional key takes its default."""
    fam = d.get("family")
    if fam not in FAMILIES:
        raise ModelMismatchError(f"unknown family {fam!r}")
    kwargs = {}
    for f in fields(FAMILIES[fam]):
        key = _KEYS.get(f.name, f.name)
        required = f.default is MISSING and f.default_factory is MISSING
        if f.init and (key in d or required):  # a missing required key raises KeyError
            kwargs[f.name] = _decode(f.type, d[key])
    return FAMILIES[fam](**kwargs)
