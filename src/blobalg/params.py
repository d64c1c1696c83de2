"""Parameter configurations and residue arithmetic.

The algebra depends on a quantum parameter q with q^(2e) = 1 for a
minimal e > 2 (e may be infinite) and on three distinguished points
alpha1, alpha2, theta living on multiplicative q^2-lattices.  A point is
either Integral, q raised to an explicit exponent, or Formal, a symbol
on a named orbit at an even offset.  Inverses of formal points live
either on a partner orbit (`Paired`) or back on the same orbit reflected
through a declared center (`SelfInverse`).

A Residue is a pair (orbit, exponent).  Exponents are reduced modulo 2e
on construction when e is finite, so residues compare by plain equality;
residues on different orbits are simply unequal.  The reserved orbit
name "q" denotes the integral lattice, whose base point is 1 = q^0 and
which is self-inverse through 0.

ParamConfig answers the lattice questions: residue, invert_site (every
inversion), on_hyperplane (a wall is a self-inverse residue, the value
+-1) and marker_label_at.

Points, inversions, residues and configurations are NamedTuples, cheap
to define at the import every command pays.  Being tuples, they equal
plain tuples of their fields, and two kinds with equal fields equal each
other (an Integral and a SelfInverse, a Formal and a Residue), so
compare within one kind only.  `parse_config` / `config_to_obj` convert
to and from the strict JSON form, and `validate_config` returns a list
of violations (empty means valid).  The standing assumptions on alpha1,
alpha2 and theta are stated once, in `standing_violations`:
validate_config evaluates it on residues, calibrated.make_seed on the
numeric values of a seed.
"""

from __future__ import annotations

import json
import operator
from functools import cached_property
from itertools import product
from typing import Mapping, NamedTuple, Optional, Union

__all__ = [
    "INTEGRAL_ORBIT",
    "DEFAULT_TOL",
    "POINT_NAMES",
    "MARKER_LABELS",
    "ALPHA_LABELS",
    "Integral",
    "Formal",
    "SelfInverse",
    "Paired",
    "PointSpec",
    "Inversion",
    "Residue",
    "ParamConfig",
    "make_config",
    "parse_config",
    "config_to_obj",
    "load_config",
    "validate_config",
    "standing_violations",
    "res_to_complex",
]

INTEGRAL_ORBIT = "q"

# Default residual tolerance of the calibrated relation checks; defined
# here, away from numpy, so that the command-line parser can show it.
DEFAULT_TOL = 1e-8

# How far res_to_complex lets a value miss an identity it must satisfy.
_VALUE_TOL = 1e-9

# Points declared in a configuration.
POINT_NAMES = ("alpha1", "alpha2", "theta")

# All queryable marker labels, in the priority order used by
# marker_label_at and by shape tie-breaking.
ALPHA_LABELS = ("alpha1", "alpha2", "alpha1_inv", "alpha2_inv")
MARKER_LABELS = ALPHA_LABELS + ("theta", "theta_inv")


class Integral(NamedTuple):
    exp: int


class Formal(NamedTuple):
    orbit: str
    offset: int


PointSpec = Union[Integral, Formal]


class SelfInverse(NamedTuple):
    center: int


class Paired(NamedTuple):
    partner: str


Inversion = Union[SelfInverse, Paired]


class Residue(NamedTuple):
    """A point of a q^2-lattice: base of `orbit` times q^`exp`.

    Always construct residues through ParamConfig.residue so that the
    exponent is reduced; two residues are equal iff they are the same
    point.
    """

    orbit: str
    exp: int

    def __repr__(self):
        return "Residue(%s, %d)" % (self.orbit, self.exp)


class _ConfigFields(NamedTuple):
    e: Optional[int]
    points: Mapping[str, PointSpec]
    inversions: Mapping[str, Inversion]


class ParamConfig(_ConfigFields):
    """e (None means infinity), the three points, and orbit inversions.

    The inversions mapping is symmetrically closed: if A is paired with
    A* then both directions are present.  Use make_config or
    parse_config rather than the raw constructor.  This subclass of the
    fields keeps an instance __dict__ for its cached tables; the dicts
    among its fields make it unhashable.
    """

    # -- residues -------------------------------------------------------

    def residue(self, orbit, exp):
        if orbit != INTEGRAL_ORBIT and orbit not in self.inversions:
            raise ValueError("unknown orbit %r" % orbit)
        if self.e is not None:
            exp %= 2 * self.e
        return Residue(orbit, exp)

    def point_site(self, label):
        """Raw (orbit, position) of one of the six special points: not
        reduced mod 2e, so it can anchor walks on the integer lattice."""
        if label.endswith("_inv"):
            return self.invert_site(*self.point_site(label[:-4]))
        spec = self.points.get(label)
        if spec is None:
            raise ValueError("unknown point label %r" % label)
        if isinstance(spec, Integral):
            return INTEGRAL_ORBIT, spec.exp
        return spec.orbit, spec.offset

    def point_residue(self, label):
        """Residue of one of the six special points."""
        return self.residue(*self.point_site(label))

    def res_shift(self, r, steps):
        """Multiply by q^(2*steps)."""
        return self.residue(r.orbit, r.exp + 2 * steps)

    def invert_site(self, orbit, x):
        """Raw (orbit, position) of the inverse of (orbit, x), not reduced
        mod 2e: a self-inverse orbit (the integral one through 0) reflects
        through its center, a paired orbit maps x to -x on its partner."""
        if orbit == INTEGRAL_ORBIT:
            return orbit, -x
        inv = self.inversions.get(orbit)
        if inv is None:
            raise ValueError("orbit %r has no declared inversion" % orbit)
        if isinstance(inv, SelfInverse):
            return orbit, inv.center - x
        return inv.partner, -x

    def res_invert(self, r):
        return self.residue(*self.invert_site(r.orbit, r.exp))

    # -- lattice geometry ------------------------------------------------

    def on_hyperplane(self, orbit, x):
        """True when position x of the orbit's lattice lies on a wall, a
        residue equal to its own inverse: the value +-1.  A paired orbit
        has none; a self-inverse one (the integral lattice through 0) has
        them at multiples of e from half its center, or only there when
        e is infinite."""
        r = self.residue(orbit, x)
        return self.res_invert(r) == r

    @cached_property
    def _markers(self):
        """{Residue: label} of the six special points, built once; where
        two points coincide the label first in MARKER_LABELS wins."""
        table = {}
        for label in MARKER_LABELS:
            table.setdefault(self.point_residue(label), label)
        return table

    def marker_label_at(self, orbit, x):
        """Label of the special point at position x of the orbit, or None.

        Positions are compared as residues, so 2e-translates of a marked
        point are marked too when e is finite.
        """
        return self._markers.get(self.residue(orbit, x))

    @cached_property
    def _walk_tables(self):
        """{n: {shape: tables}} filled by paths.walk_tables: what the
        walks of every shape of n read, built once per configuration.  It
        lives here because a ParamConfig is not hashable, so no cache can
        be keyed by it, and its id may be reused once it is collected."""
        return {}


def make_config(e, points, inversions):
    """Build a ParamConfig, symmetrically closing the inversion table.

    Raises ValueError on structurally broken input (asymmetric pairing,
    unknown kinds); semantic problems are left to validate_config.
    """
    closed = dict(inversions)
    for orbit, inv in list(closed.items()):
        if isinstance(inv, Paired):
            back = closed.get(inv.partner)
            if back is None:
                closed[inv.partner] = Paired(orbit)
            elif not (isinstance(back, Paired) and back.partner == orbit):
                raise ValueError(
                    "inversion of orbit %r conflicts with that of %r" % (inv.partner, orbit)
                )
        elif not isinstance(inv, SelfInverse):
            raise ValueError("bad inversion for orbit %r: %r" % (orbit, inv))
    return ParamConfig(e=e, points=dict(points), inversions=closed)


# -- JSON form ----------------------------------------------------------


def _require_keys(obj, keys, where):
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % where)
    extra = set(obj) - set(keys)
    missing = set(keys) - set(obj)
    if extra:
        raise ValueError("%s has unknown keys %s" % (where, sorted(extra)))
    if missing:
        raise ValueError("%s is missing keys %s" % (where, sorted(missing)))


def _strict_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (where, value))
    return value


def _parse_point(obj, where):
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % where)
    if set(obj) == {"integral"}:
        return Integral(_strict_int(obj["integral"], where + ".integral"))
    if set(obj) == {"orbit", "offset"}:
        orbit = obj["orbit"]
        if not isinstance(orbit, str) or not orbit:
            raise ValueError("%s.orbit must be a nonempty string" % where)
        return Formal(orbit, _strict_int(obj["offset"], where + ".offset"))
    raise ValueError(
        '%s must have exactly the keys {"integral"} or {"orbit", "offset"}' % where
    )


def _parse_inversion(obj, where):
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % where)
    if set(obj) == {"paired"}:
        partner = obj["paired"]
        if not isinstance(partner, str) or not partner:
            raise ValueError("%s.paired must be a nonempty string" % where)
        return Paired(partner)
    if set(obj) == {"self_center"}:
        return SelfInverse(_strict_int(obj["self_center"], where + ".self_center"))
    raise ValueError(
        '%s must have exactly the keys {"paired"} or {"self_center"}' % where
    )


def parse_config(obj):
    """Strictly parse the JSON object form of a configuration."""
    _require_keys(obj, ("e", "points", "inversions"), "config")
    e_raw = obj["e"]
    if e_raw == "infinity":
        e = None
    else:
        e = _strict_int(e_raw, 'config.e (or the string "infinity")')
    _require_keys(obj["points"], POINT_NAMES, "config.points")
    points = {
        name: _parse_point(obj["points"][name], "config.points.%s" % name)
        for name in POINT_NAMES
    }
    if not isinstance(obj["inversions"], dict):
        raise ValueError("config.inversions must be a JSON object")
    inversions = {
        orbit: _parse_inversion(spec, "config.inversions.%s" % orbit)
        for orbit, spec in obj["inversions"].items()
    }
    return make_config(e, points, inversions)


def config_to_obj(cfg):
    points = {}
    for name in POINT_NAMES:
        spec = cfg.points[name]
        if isinstance(spec, Integral):
            points[name] = {"integral": spec.exp}
        else:
            points[name] = {"orbit": spec.orbit, "offset": spec.offset}
    inversions = {}
    for orbit in sorted(cfg.inversions):
        inv = cfg.inversions[orbit]
        if isinstance(inv, Paired):
            inversions[orbit] = {"paired": inv.partner}
        else:
            inversions[orbit] = {"self_center": inv.center}
    return {
        "e": "infinity" if cfg.e is None else cfg.e,
        "points": points,
        "inversions": inversions,
    }


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("config %s is not valid JSON: %s" % (path, exc)) from None
    return parse_config(obj)


# -- validation ---------------------------------------------------------


def validate_config(cfg):
    """Return a list of human-readable violations; empty means valid.

    Structural problems are reported first; the standing assumptions on
    the special points are only checked once the structure is sound.
    """
    out = []
    if cfg.e is not None and (not isinstance(cfg.e, int) or cfg.e < 3):
        out.append("e must be an integer >= 3 or infinity, got %r" % (cfg.e,))
    if set(cfg.points) != set(POINT_NAMES):
        out.append("points must be declared for exactly %s" % (sorted(POINT_NAMES),))
        return out

    for name in POINT_NAMES:
        spec = cfg.points[name]
        if isinstance(spec, Formal):
            if spec.orbit == INTEGRAL_ORBIT:
                out.append(
                    "%s uses orbit name %r, reserved for integral points"
                    % (name, INTEGRAL_ORBIT)
                )
            if spec.offset % 2:
                out.append("offset of %s on orbit %s must be even" % (name, spec.orbit))
            if spec.orbit not in cfg.inversions:
                out.append("orbit %s has no declared inversion" % spec.orbit)

    for orbit, inv in sorted(cfg.inversions.items()):
        if orbit == INTEGRAL_ORBIT:
            out.append('inversions must not redeclare the reserved orbit "q"')
        if isinstance(inv, Paired):
            if inv.partner == orbit:
                out.append(
                    "orbit %s cannot be paired with itself; use a self_center inversion"
                    % orbit
                )
        elif inv.center % 2:
            out.append("self inversion center of orbit %s must be even" % orbit)

    if out:
        return out

    # residues: equal as residues, a wall where on_hyperplane says so
    points = {label: cfg.point_residue(label) for label in MARKER_LABELS}
    rules = (lambda r, k: cfg.residue(r.orbit, r.exp + k), operator.eq,
             lambda r: cfg.on_hyperplane(r.orbit, r.exp))
    out = standing_violations(points, *rules)
    signed = " for one sign of a self-inverse orbit's base"
    for images in _sign_images(cfg, points):
        out += [v + signed for v in standing_violations(images, *rules)
                if v not in out and v + signed not in out]
    return out


def standing_violations(points, shift, same, wall):
    """The standing assumptions on the special points, the one statement
    of them: validate_config evaluates it on residues and
    calibrated.make_seed on the complex values of a numeric seed.

    points maps each of MARKER_LABELS to a point, shift(z, k) is z*q^k,
    same(z, w) says that two points coincide and wall(z) that z is +-1.
    The four base points alpha_i^{+-1} must be pairwise distinct, their
    q^{+-2}-shifts must avoid the four bases, and none of the twelve
    resulting points may equal +-1.  (Shifted points are allowed to meet
    each other: the graded theory is about exactly such collisions.)
    theta avoids +-1, +-q, +-q^2, the alphas and q^2/alpha1: both roots
    of the even-n blob kappa [theta/q] - [alpha1/q].
    """
    out = []
    for i, name in enumerate(ALPHA_LABELS):
        hit = next((b for b in ALPHA_LABELS[:i] if same(points[b], points[name])), None)
        if hit is not None:
            out.append("special points collide: %s equals %s" % (name, hit))
    for name in ALPHA_LABELS:
        z = points[name]
        if wall(z):
            out.append("special point %s equals +-1" % name)
        for l in (-1, 1):
            shifted = shift(z, 2 * l)
            if wall(shifted):
                out.append("special point %s*q^%d equals +-1" % (name, 2 * l))
            hit = next((b for b in ALPHA_LABELS if same(points[b], shifted)), None)
            if hit is not None:
                out.append("special points collide: %s*q^%d equals %s" % (name, 2 * l, hit))

    theta = points["theta"]
    if wall(theta):
        out.append("theta equals +-1")
    for name in ALPHA_LABELS:
        if same(theta, points[name]):
            out.append("theta equals %s" % name)
    if same(theta, shift(points["alpha1_inv"], 2)):
        out.append("theta equals q^2/alpha1")
    if wall(shift(theta, -1)) or wall(shift(theta, -2)):
        out.append("theta equals +-q or +-q^2")
    return out


def _sign_images(cfg, points):
    """The special points once per choice of the signs that
    calibrated.make_seed draws for the self-inverse formal orbits: x on
    such an orbit, with center 2c, has the value +-q^(x - c).  At finite
    e it moves to the integral point x - c or (as q^e = -1) x - c + e.
    At e = infinity the - sign keeps an orbit off the integral lattice,
    as the residues have it, but two such orbits with that sign share
    one lattice: x moves to x - c + c' on the first of them (center
    2c')."""
    centers = {}
    for r in points.values():
        orbit, center = cfg.invert_site(r.orbit, 0)
        if orbit == r.orbit != INTEGRAL_ORBIT:
            centers[orbit] = center // 2
    if cfg.e is None:
        if len(centers) > 1:
            first = min(centers)
            yield {label: cfg.residue(first, r.exp - centers[r.orbit]
                                      + centers[first])
                   if r.orbit in centers else r
                   for label, r in points.items()}
        return
    for signs in product((0, cfg.e), repeat=len(centers)):
        shift = dict(zip(centers, signs))
        yield {label: cfg.residue(INTEGRAL_ORBIT,
                                  r.exp - centers[r.orbit] + shift[r.orbit])
               if r.orbit in centers else r
               for label, r in points.items()}


# -- numeric evaluation --------------------------------------------------


def res_to_complex(cfg, r, q, orbit_bases=None):
    """Complex value of a residue for concrete q and orbit base values.

    orbit_bases maps formal orbit names to nonzero complex numbers; the
    integral orbit has implicit base 1.  For finite e the value of q
    must have multiplicative order exactly 2e, otherwise distinct
    residues would collide; a ValueError is raised in that case, as it
    is for missing or inconsistent orbit bases: the base of an orbit
    times the value at invert_site(orbit, 0) must be 1.
    """
    q = complex(q)
    if cfg.e is not None:
        p = 2 * cfg.e
        if abs(q**p - 1) > _VALUE_TOL:
            raise ValueError("q does not satisfy q^%d = 1" % p)
        for m in range(1, p):
            if abs(q**m - 1) <= _VALUE_TOL:
                raise ValueError("q has multiplicative order %d < %d" % (m, p))
    if r.orbit == INTEGRAL_ORBIT:
        base = 1.0 + 0.0j
    else:
        if not orbit_bases or r.orbit not in orbit_bases:
            raise ValueError("no base value supplied for orbit %r" % r.orbit)
        base = complex(orbit_bases[r.orbit])
        if base == 0:
            raise ValueError("orbit base for %r must be nonzero" % r.orbit)
        other, x = cfg.invert_site(r.orbit, 0)
        if other in orbit_bases and abs(
                base * complex(orbit_bases[other]) * q**x - 1) > _VALUE_TOL:
            raise ValueError("base of orbit %r is not inverse to that of %r "
                             "times q^%d" % (r.orbit, other, x))
    return base * q**r.exp
