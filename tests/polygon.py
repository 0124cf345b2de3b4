"""Combinatorial circles with exact path and winding arithmetic: the
paper's label-object semantics, kept as the reference that windex's
integer core is checked against.

A Polygon is a cycle graph on n labeled points, the combinatorial stand-in
for the circle.  A path on it is stored as a homotopy class: a start label
plus a signed step count, nothing else.  Angular quantities are Fractions
measured in turns (1 = one full revolution); no floats appear anywhere.

Sign conventions (see docs/conventions.md, version 1):

* "forward" means the stored cyclic order of the labels;
* positive path steps move forward, negative steps move backward;
* ``subtract`` returns the least nonnegative rotation, in [0, 1) turns;
* when a path between two labels is read off from a label pair, the
  minimal-|steps| representative is meant, with a tie at n/2 broken
  toward positive.

Failures are ``WindexError``s, like windex's own: ``UnknownLabel`` from
windex, and the seven classes below, which only this algebra raises.  An
``orientation`` that is neither "preserving" nor "reversing" is a plain
ValueError, a caller's misuse rather than bad data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from windex.bundle import Turns
from windex.errors import UnknownLabel, WindexError


class BadArity(WindexError):
    pass


class EndpointMismatch(WindexError):
    pass


class NotALoop(WindexError):
    pass


class SizeMismatch(WindexError):
    pass


class NotAnEndomorphism(WindexError):
    pass


class OrientationReversing(WindexError):
    pass


class TooSmall(WindexError):
    pass


PRESERVING = "preserving"
REVERSING = "reversing"


@dataclass(frozen=True)
class Polygon:
    """A cycle of n >= 1 distinct labels.

    The stored tuple is rotated so the least label comes first, which makes
    equality and hashing agree with equality of cyclic sequences.  Positions
    are relative to the stored rotation; path semantics only ever use
    position differences, so the rotation choice is invisible to callers.
    """

    labels: tuple[str, ...]
    _pos: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise TooSmall("a polygon needs at least one label")
        if len(set(labels)) != len(labels):
            raise BadArity(f"polygon labels must be distinct: {labels}")
        least = labels.index(min(labels))
        labels = labels[least:] + labels[:least]
        object.__setattr__(self, "labels", labels)
        self._pos.update({lab: i for i, lab in enumerate(labels)})

    @property
    def n(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._pos

    def position(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise UnknownLabel(f"{label!r} is not a label of {self}") from None

    def label_at(self, position: int) -> str:
        return self.labels[position % self.n]

    def successor(self, label: str) -> str:
        return self.label_at(self.position(label) + 1)

    def path(self, start: str, steps: int) -> PolyPath:
        return PolyPath(self, start, steps)

    def subtract(self, x: str, y: str) -> Turns:
        """The unique rotation amount delta in [0, 1) turns with
        rotate(x, delta * n) = y."""
        return Fraction((self.position(y) - self.position(x)) % self.n, self.n)

    def minimal_steps(self, x: str, y: str) -> int:
        """Signed step count of the shortest path x -> y (tie goes forward)."""
        d = (self.position(y) - self.position(x)) % self.n
        return d if 2 * d <= self.n else d - self.n

    def collapse(self, v: str) -> tuple["Polygon", Callable[["PolyPath"], "PolyPath"]]:
        """Remove ``v`` by shrinking the arc from ``v`` to its successor.

        Returns the smaller polygon and a transfer map on paths.  Crossings
        of the shrunk arc contribute no steps, so loop windings are
        preserved.
        """
        if self.n < 2:
            raise TooSmall("cannot collapse a 1-gon")
        pos_v = self.position(v)
        succ = self.label_at(pos_v + 1)
        small = Polygon(tuple(lab for lab in self.labels if lab != v))

        def transfer(path: PolyPath) -> PolyPath:
            if path.polygon != self:
                raise UnknownLabel("path is not on the collapsed polygon")
            p, k = self.position(path.start), path.steps
            if k >= 0:
                # forward crossings of the arc v -> succ happen at offsets
                # t in [0, k) with p + t = pos_v (mod n)
                r = (pos_v - p) % self.n
                crossings = 0 if k <= r else 1 + (k - 1 - r) // self.n
                new_steps = k - crossings
            else:
                r = (p - pos_v) % self.n or self.n
                crossings = 0 if -k < r else 1 + (-k - r) // self.n
                new_steps = k + crossings
            new_start = succ if path.start == v else path.start
            return PolyPath(small, new_start, new_steps)

        return small, transfer

    def subdivide(self, k: int) -> tuple["Polygon", Callable[["PolyPath"], "PolyPath"]]:
        """Insert k - 1 fresh points into every arc.

        An original label at position i lands at position k * i; a path of
        m steps transfers to k * m steps, so loop windings are preserved.
        """
        if k < 1:
            raise TooSmall("subdivision factor must be >= 1")
        fine: list[str] = []
        for lab in self.labels:
            fine.append(lab)
            fine.extend(f"{lab}~{j}" for j in range(1, k))
        big = Polygon(tuple(fine))

        def transfer(path: PolyPath) -> PolyPath:
            if path.polygon != self:
                raise UnknownLabel("path is not on the subdivided polygon")
            return PolyPath(big, path.start, path.steps * k)

        return big, transfer

    def __str__(self) -> str:
        return "(" + " ".join(self.labels) + ")"


@dataclass(frozen=True)
class PolyPath:
    """A homotopy class of paths on a polygon: start label + signed steps."""

    polygon: Polygon
    start: str
    steps: int

    def __post_init__(self) -> None:
        self.polygon.position(self.start)  # raises UnknownLabel

    @property
    def end(self) -> str:
        return self.polygon.label_at(self.polygon.position(self.start) + self.steps)

    def is_loop(self) -> bool:
        return self.steps % self.polygon.n == 0

    def concat(self, other: "PolyPath") -> "PolyPath":
        if other.polygon != self.polygon:
            raise EndpointMismatch("paths live on different polygons")
        if other.start != self.end:
            raise EndpointMismatch(
                f"cannot concatenate: first path ends at {self.end!r}, "
                f"second starts at {other.start!r}"
            )
        return PolyPath(self.polygon, self.start, self.steps + other.steps)

    def reverse(self) -> "PolyPath":
        return PolyPath(self.polygon, self.end, -self.steps)

    def winding(self) -> int:
        """Signed number of full traversals; defined for loops only."""
        if not self.is_loop():
            raise NotALoop(f"path {self} has endpoints {self.start!r} != {self.end!r}")
        return self.steps // self.polygon.n

    def to_turns(self) -> Turns:
        return Fraction(self.steps, self.polygon.n)

    def __str__(self) -> str:
        return f"{self.start}{self.steps:+d} on {self.polygon}"


@dataclass(frozen=True)
class PolyIso:
    """A polygon isomorphism, determined by one anchor pair and an orientation.

    Orientation ``preserving`` sends forward steps to forward steps,
    ``reversing`` negates them.  The anchor is normalized to the source's
    first stored label so that equal maps compare equal.
    """

    source: Polygon
    target: Polygon
    anchor: tuple[str, str]
    orientation: str = PRESERVING

    def __post_init__(self) -> None:
        if self.source.n != self.target.n:
            raise SizeMismatch(
                f"isomorphism needs equal sizes, got {self.source.n} and {self.target.n}"
            )
        if self.orientation not in (PRESERVING, REVERSING):
            raise ValueError(f"bad orientation {self.orientation!r}")
        a, b = self.anchor
        shift = self.target.position(b) - self.sign * self.source.position(a)
        base = self.source.labels[0]
        image = self.target.label_at(shift)  # image of position 0
        object.__setattr__(self, "anchor", (base, image))

    @property
    def sign(self) -> int:
        return 1 if self.orientation == PRESERVING else -1

    @classmethod
    def identity(cls, polygon: Polygon) -> "PolyIso":
        return cls(polygon, polygon, (polygon.labels[0], polygon.labels[0]))

    @classmethod
    def rotation(cls, polygon: Polygon, steps: int) -> "PolyIso":
        return cls(polygon, polygon, (polygon.labels[0], polygon.label_at(steps)))

    def __call__(self, label: str) -> str:
        offset = self.sign * self.source.position(label)
        return self.target.label_at(self.target.position(self.anchor[1]) + offset)

    def mapping(self) -> dict[str, str]:
        return {lab: self(lab) for lab in self.source.labels}

    def apply(self, path: PolyPath) -> PolyPath:
        if path.polygon != self.source:
            raise UnknownLabel(f"path {path} is not on the source polygon")
        return PolyPath(self.target, self(path.start), self.sign * path.steps)

    def compose(self, other: "PolyIso") -> "PolyIso":
        """self after other (function-composition order)."""
        if other.target != self.source:
            raise EndpointMismatch("isomorphisms do not chain: target/source mismatch")
        orientation = PRESERVING if self.sign * other.sign == 1 else REVERSING
        base = other.source.labels[0]
        return PolyIso(other.source, self.target, (base, self(other(base))), orientation)

    def invert(self) -> "PolyIso":
        base = self.source.labels[0]
        return PolyIso(self.target, self.source, (self(base), base), self.orientation)

    def rotation_steps(self) -> int:
        """The r in [0, n) with self = rotation-by-r; endomorphisms only."""
        if self.source != self.target:
            raise NotAnEndomorphism(f"{self.source} != {self.target}")
        if self.orientation != PRESERVING:
            raise OrientationReversing("a reversing map is not a rotation")
        base = self.source.labels[0]
        return self.source.position(self(base)) % self.source.n

    def __str__(self) -> str:
        arrow = "=>" if self.orientation == PRESERVING else "=/>"
        a, b = self.anchor
        return f"{self.source} {arrow} {self.target} ({a} -> {b})"
