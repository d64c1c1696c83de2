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
name "q" denotes the integral lattice, whose base point is 1 = q^0.

Configurations are plain frozen dataclasses; `parse_config` /
`config_to_obj` convert to and from the strict JSON form, and
`validate_config` returns a list of violations (empty means valid).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Union

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
    "res_to_complex",
]

INTEGRAL_ORBIT = "q"

# Default residual tolerance of the calibrated relation checks; defined
# here, away from numpy, so that the command-line parser can show it.
DEFAULT_TOL = 1e-8

# Points declared in a configuration.
POINT_NAMES = ("alpha1", "alpha2", "theta")

# All queryable marker labels, in the priority order used by
# marker_label_at and by shape tie-breaking.
ALPHA_LABELS = ("alpha1", "alpha2", "alpha1_inv", "alpha2_inv")
MARKER_LABELS = ALPHA_LABELS + ("theta", "theta_inv")


@dataclass(frozen=True)
class Integral:
    exp: int


@dataclass(frozen=True)
class Formal:
    orbit: str
    offset: int


PointSpec = Union[Integral, Formal]


@dataclass(frozen=True)
class SelfInverse:
    center: int


@dataclass(frozen=True)
class Paired:
    partner: str


Inversion = Union[SelfInverse, Paired]


@dataclass(frozen=True)
class Residue:
    """A point of a q^2-lattice: base of `orbit` times q^`exp`.

    Always construct residues through ParamConfig.residue so that the
    exponent is reduced; two residues are equal iff they are the same
    point.
    """

    orbit: str
    exp: int

    def __repr__(self):
        return "Residue(%s, %d)" % (self.orbit, self.exp)


@dataclass(frozen=True)
class ParamConfig:
    """e (None means infinity), the three points, and orbit inversions.

    The inversions mapping is symmetrically closed: if A is paired with
    A* then both directions are present.  Use make_config or
    parse_config rather than the raw constructor.
    """

    e: Optional[int]
    points: Mapping[str, PointSpec] = field(default_factory=dict)
    inversions: Mapping[str, Inversion] = field(default_factory=dict)

    # -- basic structure ------------------------------------------------

    @property
    def period(self):
        """2e for finite e, else None."""
        return None if self.e is None else 2 * self.e

    def _inversion_of(self, orbit):
        if orbit == INTEGRAL_ORBIT:
            return SelfInverse(0)
        inv = self.inversions.get(orbit)
        if inv is None:
            raise ValueError("orbit %r has no declared inversion" % orbit)
        return inv

    def hyperplane_center(self, orbit):
        """Reflection center exponent for integral-like orbits, else None.

        The integral lattice reflects through 0.  A self-inverse formal
        orbit behaves like an integral lattice shifted so that the point
        playing the role of q^0 sits at center/2.  Paired orbits carry
        no hyperplanes at all.
        """
        inv = self._inversion_of(orbit)
        if isinstance(inv, SelfInverse):
            return inv.center // 2
        return None

    # -- residues -------------------------------------------------------

    def residue(self, orbit, exp):
        if orbit != INTEGRAL_ORBIT and orbit not in self.inversions:
            raise ValueError("unknown orbit %r" % orbit)
        p = self.period
        if p is not None:
            exp %= p
        return Residue(orbit, exp)

    def point_site(self, label):
        """Raw (orbit, position) of one of the six special points: not
        reduced mod 2e, so it can anchor walks on the integer lattice."""
        if label.endswith("_inv"):
            orbit, x = self.point_site(label[:-4])
            return self.invert_orbit(orbit), self.raw_invert_position(orbit, x)
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

    def res_invert(self, r):
        inv = self._inversion_of(r.orbit)
        if isinstance(inv, SelfInverse):
            return self.residue(r.orbit, inv.center - r.exp)
        return self.residue(inv.partner, -r.exp)

    def raw_invert_position(self, orbit, x):
        """Unreduced lattice coordinate of the inverse of (orbit, x)."""
        inv = self._inversion_of(orbit)
        if isinstance(inv, SelfInverse):
            return inv.center - x
        return -x

    def invert_orbit(self, orbit):
        inv = self._inversion_of(orbit)
        if isinstance(inv, SelfInverse):
            return orbit
        return inv.partner

    # -- lattice geometry ------------------------------------------------

    def on_hyperplane(self, orbit, x):
        """True when position x of the orbit's lattice lies on a wall.

        Walls sit where the lattice value is +-1: at multiples of e from
        the reflection center for finite e, and only at the center for
        e infinite.  Paired formal orbits have no walls.
        """
        c = self.hyperplane_center(orbit)
        if c is None:
            return False
        if self.e is None:
            return x == c
        return (x - c) % self.e == 0

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

    # Standing assumptions.  The four base points alpha_i^{+-1} must be
    # pairwise distinct, their q^{+-2}-shifts must avoid the four bases,
    # and none of the twelve resulting points may equal +-1.  (Shifted
    # points are allowed to meet each other: the graded theory is about
    # exactly such collisions.)  theta avoids +-1, +-q, +-q^2, the alphas
    # and q^2/alpha1: both roots of the even-n blob kappa [theta/q] - [alpha1/q].
    bases = {}
    for name in ALPHA_LABELS:
        r = cfg.point_residue(name)
        if r in bases:
            out.append("special points collide: %s equals %s" % (name, bases[r]))
        else:
            bases[r] = name
    for name in ALPHA_LABELS:
        r = cfg.point_residue(name)
        if cfg.on_hyperplane(r.orbit, r.exp):
            out.append("special point %s equals +-1" % name)
        for l in (-1, 1):
            shifted = cfg.res_shift(r, l)
            if cfg.on_hyperplane(shifted.orbit, shifted.exp):
                out.append("special point %s*q^%d equals +-1" % (name, 2 * l))
            hit = bases.get(shifted)
            if hit is not None:
                out.append("special points collide: %s*q^%d equals %s" % (name, 2 * l, hit))

    theta = cfg.point_residue("theta")
    if cfg.on_hyperplane(theta.orbit, theta.exp):
        out.append("theta equals +-1")
    for name in ALPHA_LABELS:
        if theta == cfg.point_residue(name):
            out.append("theta equals %s" % name)
    if theta == cfg.res_shift(cfg.point_residue("alpha1_inv"), 1):
        out.append("theta equals q^2/alpha1")
    if (cfg.on_hyperplane(theta.orbit, theta.exp - 1)
            or cfg.on_hyperplane(theta.orbit, theta.exp - 2)):
        out.append("theta equals +-q or +-q^2")
    return out


# -- numeric evaluation --------------------------------------------------


def res_to_complex(cfg, r, q, orbit_bases=None, tol=1e-9):
    """Complex value of a residue for concrete q and orbit base values.

    orbit_bases maps formal orbit names to nonzero complex numbers; the
    integral orbit has implicit base 1.  For finite e the value of q
    must have multiplicative order exactly 2e, otherwise distinct
    residues would collide; a ValueError is raised in that case, as it
    is for missing or inconsistent orbit bases.
    """
    q = complex(q)
    if cfg.e is not None:
        p = 2 * cfg.e
        if abs(q**p - 1) > tol:
            raise ValueError("q does not satisfy q^%d = 1" % p)
        for m in range(1, p):
            if abs(q**m - 1) <= tol:
                raise ValueError("q has multiplicative order %d < %d" % (m, p))
    if r.orbit == INTEGRAL_ORBIT:
        base = 1.0 + 0.0j
    else:
        if not orbit_bases or r.orbit not in orbit_bases:
            raise ValueError("no base value supplied for orbit %r" % r.orbit)
        base = complex(orbit_bases[r.orbit])
        if base == 0:
            raise ValueError("orbit base for %r must be nonzero" % r.orbit)
        inv = cfg.inversions.get(r.orbit)
        if isinstance(inv, Paired) and orbit_bases and inv.partner in orbit_bases:
            other = complex(orbit_bases[inv.partner])
            if abs(base * other - 1) > tol:
                raise ValueError(
                    "bases of paired orbits %r and %r are not inverse" % (r.orbit, inv.partner)
                )
        if isinstance(inv, SelfInverse):
            if abs(base * base * q**inv.center - 1) > tol:
                raise ValueError(
                    "base of self-inverse orbit %r is inconsistent with its center" % r.orbit
                )
    return base * q**r.exp
