"""CNF clause databases with named variable groups and a folding gate builder.

Variable 1 is reserved as constant true (a unit clause pins it), so the
literals +1/-1 double as the constants; gate emitters fold constants and
hash structurally, which keeps time-unrolled circuit encodings compact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

TRUE = 1
FALSE = -1


def is_const(lit: int) -> bool:
    return lit == TRUE or lit == FALSE


@dataclass(frozen=True)
class CnfInstance:
    """Immutable clause database plus named variable groups.

    ``groups`` maps a name to a tuple of literals (signed; +-1 are the
    constants).  ``implied_vars`` are Tseitin-style definitions fully
    determined by the other variables; a solver may skip branching on them.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    groups: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    implied_vars: tuple[int, ...] = ()


class CnfBuilder:
    """Accumulates clauses; emits gates with constant folding and strashing."""

    def __init__(self):
        self._num_vars = 1  # var 1 is constant true
        self.clauses: list[tuple[int, ...]] = [(TRUE,)]
        self.groups: dict[str, tuple[int, ...]] = {}
        self.implied_vars: list[int] = []
        self._hash: dict[tuple, int] = {}

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def new_var(self, implied: bool = False) -> int:
        """Fresh variable; implied=True marks a pure definition whose value
        follows from the free variables, which solvers need not branch on."""
        self._num_vars += 1
        if implied:
            self.implied_vars.append(self._num_vars)
        return self._num_vars

    def new_vars(self, n: int) -> list[int]:
        return [self.new_var() for _ in range(n)]

    def add(self, *lits: int) -> None:
        """Add a clause; constant literals are folded away."""
        if TRUE in lits:
            return
        out = tuple(l for l in lits if l != FALSE)
        self.clauses.append(out)

    def group(self, name: str, lits: Sequence[int]) -> None:
        self.groups[name] = tuple(lits)

    def build(self) -> CnfInstance:
        return CnfInstance(
            self._num_vars, tuple(self.clauses), dict(self.groups),
            tuple(self.implied_vars),
        )

    # ---------------------------------------------------------- gate logic

    def emit_and(self, ins: Sequence[int]) -> int:
        lits = []
        for l in ins:
            if l == FALSE:
                return FALSE
            if l != TRUE and l not in lits:
                if -l in lits:
                    return FALSE
                lits.append(l)
        if not lits:
            return TRUE
        if len(lits) == 1:
            return lits[0]
        key = ("AND", tuple(sorted(lits)))
        hit = self._hash.get(key)
        if hit is not None:
            return hit
        g = self.new_var(implied=True)
        for l in lits:
            self.add(-g, l)
        self.add(g, *(-l for l in lits))
        self._hash[key] = g
        return g

    def emit_or(self, ins: Sequence[int]) -> int:
        return -self.emit_and([-l for l in ins])

    def emit_xor(self, ins: Sequence[int]) -> int:
        flip = False
        lits: list[int] = []
        for l in ins:
            if l == TRUE:
                flip = not flip
            elif l != FALSE:
                lits.append(l)
        acc: int | None = None
        for l in lits:
            acc = l if acc is None else self._emit_xor2(acc, l)
        if acc is None:
            acc = FALSE
        return -acc if flip else acc

    def _emit_xor2(self, a: int, b: int) -> int:
        if a == b:
            return FALSE
        if a == -b:
            return TRUE
        # canonical form: positive literals, output phase folded in
        phase = (a < 0) ^ (b < 0)
        a, b = abs(a), abs(b)
        if a > b:
            a, b = b, a
        key = ("XOR", a, b)
        g = self._hash.get(key)
        if g is None:
            g = self.new_var(implied=True)
            self.add(-g, a, b)
            self.add(-g, -a, -b)
            self.add(g, -a, b)
            self.add(g, a, -b)
            self._hash[key] = g
        return -g if phase else g

    def emit_fn(self, fn: str, ins: Sequence[int]) -> int:
        """Output literal of an n-ary gate over input literals."""
        if fn == "AND":
            return self.emit_and(ins)
        if fn == "NAND":
            return -self.emit_and(ins)
        if fn == "OR":
            return self.emit_or(ins)
        if fn == "NOR":
            return -self.emit_or(ins)
        if fn == "XOR":
            return self.emit_xor(ins)
        if fn == "XNOR":
            return -self.emit_xor(ins)
        if fn == "NOT":
            return -ins[0]
        if fn == "BUF":
            return ins[0]
        raise ValueError(f"cannot encode function {fn!r}")

    def add_guarded_equal(self, guard: Sequence[int], a: int, b: int) -> None:
        """Clauses for (AND guard) -> (a <-> b)."""
        gneg = [-g for g in guard]
        if is_const(a) and is_const(b):
            if a != b:
                self.add(*gneg)
            return
        if is_const(b):
            a, b = b, a
        if is_const(a):
            self.add(*gneg, b if a == TRUE else -b)
            return
        self.add(*gneg, -a, b)
        self.add(*gneg, a, -b)

    def add_equal(self, a: int, b: int) -> None:
        self.add_guarded_equal((), a, b)

    def emit_mismatch(self, a: int, b: int) -> int | None:
        """A literal that can only be true when a != b (one-directional).

        Returns None when a and b can never differ (same literal / equal
        constants); returns TRUE when they always differ.
        """
        if a == b:
            return None
        if a == -b:
            return TRUE
        if is_const(b):
            a, b = b, a
        if is_const(a):
            return -b if a == TRUE else b
        m = self.new_var()
        self.add(-m, a, b)
        self.add(-m, -a, -b)
        return m
