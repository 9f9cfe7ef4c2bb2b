"""Sparse exact arithmetic for torus characters, Laurent polynomials and
rational expressions with factored denominators.

The coefficient field is Q (``fractions.Fraction``, with plain ints kept
wherever possible).  A monomial is ``T^w * y^k`` where ``w`` is an integer
character of a fixed-rank lattice and ``k >= 0``; ``T^w`` stands for
``e^{-w}``, so ``T^u * T^v = T^{u+v}`` and character entries may be negative.
Rational expressions keep their denominators *factored* as a multiset of
nonzero characters, each meaning a factor ``(1 - T^w)``.  Denominators are
never expanded unless an operation requires it (equality by
cross-multiplication, exact reduction).

Character entries are ordered ``(t, t_1, ..., t_m)``; the rendered variable
for ``t`` is ``T`` and for ``t_i`` is ``Ti``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Coeff = int | Fraction


class ArityMismatch(ValueError):
    """Operands live over character lattices of different rank."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division has a nonzero remainder."""


class DivisionByZero(ZeroDivisionError):
    """Division by zero: zero divisor polynomial or a zero character in a
    denominator (the factor 1 - T^0 vanishes identically)."""


class DenominatorVanishes(ZeroDivisionError):
    """A substitution sends some denominator factor 1 - T^w to zero."""


class IllFormedMap(ValueError):
    """A lattice map's image list does not match the source lattice."""


def _norm(c: Coeff) -> Coeff:
    """Prefer ints over integral Fractions so reprs stay tidy."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _divc(a: Coeff, b: Coeff) -> Coeff:
    """Exact division of coefficients (never float)."""
    return _norm(Fraction(a) / Fraction(b))


@dataclass(frozen=True, slots=True)
class Character:
    """An integer character of the torus lattice, entries ``(t, t_1, ..., t_m)``.

    >>> Character((1, -1)) + Character((0, 2))
    Character((1, 1))
    >>> -Character((0, 1))
    Character((0, -1))
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def zero(cls, arity: int) -> Character:
        return cls((0,) * arity)

    @classmethod
    def basis(cls, arity: int, index: int) -> Character:
        return cls(tuple(1 if i == index else 0 for i in range(arity)))

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: Character) -> Character:
        return Character(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: Character) -> Character:
        return Character(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> Character:
        return Character(tuple(-a for a in self.coeffs))

    def scaled(self, k: int) -> Character:
        return Character(tuple(k * a for a in self.coeffs))

    def padded(self, arity: int) -> Character:
        """Embed into a larger lattice by appending zero entries."""
        if arity < self.arity:
            raise IllFormedMap(f"cannot pad arity {self.arity} down to {arity}")
        return Character(self.coeffs + (0,) * (arity - self.arity))

    def is_sign_canonical(self) -> bool:
        """True when the first nonzero entry is positive (zero counts too)."""
        for a in self.coeffs:
            if a:
                return a > 0
        return True

    def __repr__(self) -> str:
        return f"Character({self.coeffs!r})"


class Monomial(NamedTuple):
    """A single monomial ``T^char * y^ypow`` (``ypow >= 0``)."""

    char: Character
    ypow: int


def _order_key(m: Monomial) -> tuple:
    """Canonical term order: lexicographic on (ypow, character entries)."""
    return (m.ypow, m.char.coeffs)


def signed_join(terms: Iterable[str]) -> str:
    """Join rendered terms into a sum, turning a leading ``-`` into a minus
    sign; the empty sum is ``0``.

    >>> signed_join(["y", "-2*T", "1"])
    'y - 2*T + 1'
    """
    parts: list[str] = []
    for s in terms:
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(f"- {s[1:]}")
        else:
            parts.append(f"+ {s}")
    return " ".join(parts) if parts else "0"


def _char_str(w: Character) -> str:
    parts = []
    for i, e in enumerate(w.coeffs):
        if e == 0:
            continue
        name = "T" if i == 0 else f"T{i}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _term_str(m: Monomial, c: Coeff) -> str:
    factors = []
    if m.ypow:
        factors.append("y" if m.ypow == 1 else f"y^{m.ypow}")
    tpart = _char_str(m.char)
    if tpart:
        factors.append(tpart)
    if not factors:
        return str(c)
    body = "*".join(factors)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


@dataclass(frozen=True, slots=True)
class SparsePoly:
    """Sparse Laurent polynomial in T-variables and y over Q.

    ``terms`` maps :class:`Monomial` to a nonzero coefficient.  Instances are
    treated as immutable: every operation returns a new polynomial, so values
    can be shared freely (including across worker threads).

    >>> T = SparsePoly.monomial(Character((1,)))
    >>> y = SparsePoly.y_power(1)
    >>> (1 + y * T) * (1 - T)
    1 - T + y*T - y*T^2
    >>> (1 - T) * (1 + T)
    1 - T^2
    """

    arity: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def zero(cls, arity: int) -> SparsePoly:
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, c: Coeff) -> SparsePoly:
        c = _norm(c)
        if c == 0:
            return cls.zero(arity)
        return cls(arity, {Monomial(Character.zero(arity), 0): c})

    @classmethod
    def one(cls, arity: int) -> SparsePoly:
        return cls.constant(arity, 1)

    @classmethod
    def y_power(cls, arity: int, k: int = 1, coeff: Coeff = 1) -> SparsePoly:
        if k < 0:
            raise ValueError("y admits only nonnegative exponents")
        return cls(arity, {Monomial(Character.zero(arity), k): _norm(coeff)}) if coeff else cls.zero(arity)

    @classmethod
    def monomial(cls, char: Character, ypow: int = 0, coeff: Coeff = 1) -> SparsePoly:
        if ypow < 0:
            raise ValueError("y admits only nonnegative exponents")
        if coeff == 0:
            return cls.zero(char.arity)
        return cls(char.arity, {Monomial(char, ypow): _norm(coeff)})

    @classmethod
    def from_terms(cls, arity: int, items: Iterable[tuple[Monomial, Coeff]]) -> SparsePoly:
        acc: dict = {}
        for m, c in items:
            if m.char.arity != arity:
                raise ArityMismatch(f"term arity {m.char.arity} != {arity}")
            if m.ypow < 0:
                raise ValueError("y admits only nonnegative exponents")
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = nc
            else:
                acc.pop(m, None)
        return cls(arity, {m: _norm(c) for m, c in acc.items()})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=lambda it: _order_key(it[0]))

    def is_y_only(self) -> bool:
        return all(m.char.is_zero() for m in self.terms)

    def y_coefficients(self) -> dict[int, Coeff]:
        """Coefficient of each y-power; requires a T-free polynomial."""
        if not self.is_y_only():
            raise ValueError("polynomial still depends on T-variables")
        return {m.ypow: c for m, c in sorted(self.terms.items(), key=lambda it: it[0].ypow)}

    # -- ring operations ----------------------------------------------

    def _check(self, other: SparsePoly) -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} != {other.arity}")

    def __add__(self, other: SparsePoly | Coeff) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.arity, other)
        self._check(other)
        small, large = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        acc = dict(large)
        for m, c in small.items():
            nc = acc.get(m, 0) + c
            if nc:
                acc[m] = _norm(nc)
            else:
                del acc[m]
        return SparsePoly(self.arity, acc)

    __radd__ = __add__

    def __neg__(self) -> SparsePoly:
        return SparsePoly(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: SparsePoly | Coeff) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.arity, other)
        return self + (-other)

    def __rsub__(self, other: Coeff) -> SparsePoly:
        return (-self) + other

    def __mul__(self, other: SparsePoly | Coeff) -> SparsePoly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SparsePoly.zero(self.arity)
            return SparsePoly(self.arity, {m: _norm(c * other) for m, c in self.terms.items()})
        self._check(other)
        small, large = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        acc: dict = {}
        for m1, c1 in small.terms.items():
            ch1, y1 = m1
            for m2, c2 in large.terms.items():
                m = Monomial(ch1 + m2.char, y1 + m2.ypow)
                nc = acc.get(m, 0) + c1 * c2
                if nc:
                    acc[m] = nc
                else:
                    del acc[m]
        return SparsePoly(self.arity, {m: _norm(c) for m, c in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> SparsePoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = SparsePoly.one(self.arity)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shifted(self, char: Character, ypow: int = 0, coeff: Coeff = 1) -> SparsePoly:
        """Multiply by the monomial ``coeff * T^char * y^ypow``."""
        if coeff == 0:
            return SparsePoly.zero(self.arity)
        return SparsePoly(
            self.arity,
            {Monomial(m.char + char, m.ypow + ypow): _norm(c * coeff) for m, c in self.terms.items()},
        )

    def mul_one_minus(self, w: Character) -> SparsePoly:
        """Multiply by the factor ``(1 - T^w)`` without generic convolution."""
        return self - self.shifted(w)

    # -- substitutions --------------------------------------------------

    def subs_y(self, value: Coeff) -> SparsePoly:
        """Substitute an exact rational value for y, keeping T symbolic."""
        acc: dict = {}
        for m, c in self.terms.items():
            nc = acc.get(m.char, 0) + c * (Fraction(value) ** m.ypow if m.ypow else 1)
            if nc:
                acc[m.char] = nc
            else:
                acc.pop(m.char, None)
        return SparsePoly(self.arity, {Monomial(ch, 0): _norm(c) for ch, c in acc.items()})

    def apply_map(self, images: Sequence[Character]) -> SparsePoly:
        """Apply the lattice map sending basis character i to ``images[i]``."""
        if len(images) != self.arity:
            raise IllFormedMap(f"{len(images)} images for arity {self.arity}")
        arities = {w.arity for w in images}
        if len(arities) > 1:
            raise IllFormedMap("image characters have mixed arities")
        target = arities.pop() if arities else 0
        acc: dict = {}
        for m, c in self.terms.items():
            vec = [0] * target
            for e, img in zip(m.char.coeffs, images):
                if e:
                    for i, a in enumerate(img.coeffs):
                        vec[i] += e * a
            nm = Monomial(Character(tuple(vec)), m.ypow)
            nc = acc.get(nm, 0) + c
            if nc:
                acc[nm] = nc
            else:
                del acc[nm]
        return SparsePoly(target, {m: _norm(c) for m, c in acc.items()})

    def pad_to(self, arity: int) -> SparsePoly:
        """Embed into a larger lattice by zero-padding every character."""
        if arity == self.arity:
            return self
        return SparsePoly(arity, {Monomial(m.char.padded(arity), m.ypow): c for m, c in self.terms.items()})

    def evaluate(self, tvals: Sequence[Fraction], yval: Coeff) -> Coeff:
        """Evaluate at exact rational values (one per T-variable)."""
        if len(tvals) != self.arity:
            raise IllFormedMap(f"{len(tvals)} values for arity {self.arity}")
        if any(v == 0 for v in tvals):
            raise ValueError("T-variables take nonzero values (negative exponents occur)")
        yval = Fraction(yval)
        total = Fraction(0)
        for m, c in self.terms.items():
            v = Fraction(c)
            for val, e in zip(tvals, m.char.coeffs):
                if e:
                    v *= Fraction(val) ** e
            if m.ypow:
                v *= yval ** m.ypow
            total += v
        return _norm(total)

    # -- exact division -------------------------------------------------

    def div_by_one_minus(self, w: Character) -> SparsePoly:
        """Exact division by ``(1 - T^w)`` (w nonzero), via cosets of Z*w.

        Restricting the polynomial to each line ``rep + Z*w`` gives a
        univariate Laurent polynomial in ``s = T^w``; dividing by ``(1 - s)``
        is a prefix-sum whose total must vanish.  Lines are grouped on plain
        exponent tuples, and monomials are built only for the quotient of a
        division that succeeds.

        >>> T = SparsePoly.monomial(Character((1,)))
        >>> (1 - T**3).div_by_one_minus(Character((1,)))
        1 + T + T^2
        """
        if w.is_zero():
            raise DivisionByZero("division by 1 - T^0 = 0")
        if self.is_zero:
            return self
        wc = w.coeffs
        j = next(i for i, a in enumerate(wc) if a)
        wj = wc[j]
        lines: dict[tuple, dict[int, Coeff]] = {}
        for (char, ypow), c in self.terms.items():
            e = char.coeffs
            k = e[j] // wj
            lines.setdefault((ypow, tuple(a - k * b for a, b in zip(e, wc))), {})[k] = c
        for (ypow, rep), coeffs in lines.items():
            if sum(coeffs.values()) != 0:
                raise NotDivisible(f"remainder on line {rep} (y^{ypow})")
        out: dict = {}
        for (ypow, rep), coeffs in lines.items():
            running: Coeff = 0
            for k in range(min(coeffs), max(coeffs)):
                running += coeffs.get(k, 0)
                if running:
                    out[Monomial(Character(tuple(a + k * b for a, b in zip(rep, wc))), ypow)] = _norm(running)
        return SparsePoly(self.arity, out)

    def div_exact(self, d: SparsePoly) -> SparsePoly:
        """Exact division; raises :class:`NotDivisible` on any remainder.

        >>> T = SparsePoly.monomial(Character((1,)))
        >>> (1 - T**2).div_exact(1 - T)
        1 + T
        >>> (1 - T).div_exact(1 - T**2)
        Traceback (most recent call last):
            ...
        eck.algebra.NotDivisible: remainder on line (0,) (y^0)
        """
        if isinstance(d, (int, Fraction)):
            d = SparsePoly.constant(self.arity, d)
        self._check(d)
        if d.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero:
            return self
        if len(d.terms) == 2:
            q = self._try_binomial_division(d)
            if q is not None:
                return q
        return self._div_general(d)

    def _try_binomial_division(self, d: SparsePoly) -> SparsePoly | None:
        """Fast path when d = c * T^a * (1 - T^w) with no y in d."""
        (m1, c1), (m2, c2) = d.terms.items()
        if m1.ypow or m2.ypow:
            return None
        if c1 + c2 != 0:
            return None
        # d = c1*T^{m1} + c2*T^{m2} = -c2 * T^{m1} * (1 - T^{m2-m1})
        w = m2.char - m1.char
        q = self.div_by_one_minus(w)
        return q.shifted(-m1.char, coeff=_divc(1, -c2))

    def _div_general(self, d: SparsePoly) -> SparsePoly:
        dims = self.arity + 1  # (ypow, chr...)

        def vec(m: Monomial) -> tuple[int, ...]:
            return (m.ypow,) + m.char.coeffs

        pvecs = [vec(m) for m in self.terms]
        dvecs = [vec(m) for m in d.terms]
        lo = tuple(min(v[i] for v in pvecs) - min(v[i] for v in dvecs) for i in range(dims))
        hi = tuple(max(v[i] for v in pvecs) - max(v[i] for v in dvecs) for i in range(dims))
        if any(a > b for a, b in zip(lo, hi)) or lo[0] < 0:
            raise NotDivisible("quotient support leaves the Newton box")

        dlead = max(d.terms, key=_order_key)
        dlc = d.terms[dlead]
        drest = [(m, c) for m, c in d.terms.items() if m != dlead]

        rem = dict(self.terms)
        heap = [tuple(-a for a in vec(m)) for m in rem]
        heapq.heapify(heap)
        q: dict = {}
        while rem:
            nk = heapq.heappop(heap)
            m = Monomial(Character(tuple(-a for a in nk[1:])), -nk[0])
            if m not in rem:
                continue  # stale entry
            c = rem.pop(m)
            tm = Monomial(m.char - dlead.char, m.ypow - dlead.ypow)
            tv = vec(tm)
            if any(a < b for a, b in zip(tv, lo)) or any(a > b for a, b in zip(tv, hi)):
                raise NotDivisible("quotient support leaves the Newton box")
            tc = _divc(c, dlc)
            q[tm] = tc
            for dm, dc in drest:
                nm = Monomial(tm.char + dm.char, tm.ypow + dm.ypow)
                nc = rem.get(nm, 0) - tc * dc
                if nc:
                    if nm not in rem:
                        heapq.heappush(heap, tuple(-a for a in vec(nm)))
                    rem[nm] = nc
                else:
                    rem.pop(nm, None)
        return SparsePoly(self.arity, {m: _norm(c) for m, c in q.items()})

    def __str__(self) -> str:
        return signed_join(_term_str(m, c) for m, c in self.sorted_terms())

    __repr__ = __str__


# -- sample points for mismatch witnesses -----------------------------------


def _primes(count: int) -> list[int]:
    out: list[int] = []
    cand = 2
    while len(out) < count:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


def sample_points(arity: int, seed: int, rounds: int = 3) -> list[tuple[list[Fraction], Fraction]]:
    """Deterministic evaluation points: each T-variable gets a ratio of two
    primes, all primes distinct across variables, so no factor ``1 - T^w``
    with ``w != 0`` can vanish (unique factorization); y gets a small
    rational."""
    rng = random.Random(seed)
    pool = _primes(max(2 * arity, 2) + 8)
    points = []
    for _ in range(rounds):
        chosen = rng.sample(pool, 2 * arity) if arity else []
        tvals = [Fraction(chosen[2 * i], chosen[2 * i + 1]) for i in range(arity)]
        yval = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        points.append((tvals, yval))
    return points


def _nonzero_at_one(p: SparsePoly) -> bool:
    """True when ``p(T = 1, y)`` is a nonzero polynomial in y."""
    at_one: dict[int, Coeff] = {}
    for (_, ypow), c in p.terms.items():
        at_one[ypow] = at_one.get(ypow, 0) + c
    return any(at_one.values())


def _multiset(chars: Iterable[Character]) -> dict[Character, int]:
    out: dict[Character, int] = {}
    for w in chars:
        out[w] = out.get(w, 0) + 1
    return out


@dataclass(frozen=True, slots=True)
class RatExpr:
    """A rational expression ``num / prod (1 - T^w)``.

    The denominator is a multiset of nonzero characters, stored sorted, each
    sign-canonical (first nonzero entry positive); the identity
    ``1/(1 - T^w) = -T^{-w}/(1 - T^{-w})`` moves any flip into the numerator,
    so the canonical form represents the same rational function.

    >>> h = hfactor_expr(Character((1,)))
    >>> h
    (1 + y*T) / (1 - T)
    >>> (h - 1).reduced()
    (T + y*T) / (1 - T)
    """

    num: SparsePoly
    den: tuple[Character, ...] = ()

    def __post_init__(self) -> None:
        num = self.num
        fixed: list[Character] = []
        flips = 0
        shift = Character.zero(num.arity)
        for w in self.den:
            if w.arity != num.arity:
                raise ArityMismatch(f"denominator arity {w.arity} != {num.arity}")
            if w.is_zero():
                raise DivisionByZero("denominator factor 1 - T^0 vanishes identically")
            if w.is_sign_canonical():
                fixed.append(w)
            else:
                fixed.append(-w)
                flips += 1
                shift = shift + (-w)
        if flips:
            num = num.shifted(shift, coeff=(-1) ** flips)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", tuple(sorted(fixed, key=lambda w: w.coeffs)))

    @classmethod
    def from_poly(cls, p: SparsePoly) -> RatExpr:
        return cls(p, ())

    @classmethod
    def one(cls, arity: int) -> RatExpr:
        return cls(SparsePoly.one(arity), ())

    @classmethod
    def zero(cls, arity: int) -> RatExpr:
        return cls(SparsePoly.zero(arity), ())

    @property
    def arity(self) -> int:
        return self.num.arity

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other) -> RatExpr:
        if isinstance(other, RatExpr):
            return other
        if isinstance(other, SparsePoly):
            return RatExpr(other, ())
        if isinstance(other, (int, Fraction)):
            return RatExpr(SparsePoly.constant(self.arity, other), ())
        return NotImplemented

    def __add__(self, other) -> RatExpr:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} != {other.arity}")
        mine, theirs = _multiset(self.den), _multiset(other.den)
        common: dict[Character, int] = dict(mine)
        for w, k in theirs.items():
            common[w] = max(common.get(w, 0), k)
        num_a = self.num
        num_b = other.num
        for w, k in common.items():
            for _ in range(k - mine.get(w, 0)):
                num_a = num_a.mul_one_minus(w)
            for _ in range(k - theirs.get(w, 0)):
                num_b = num_b.mul_one_minus(w)
        den = [w for w, k in common.items() for _ in range(k)]
        return RatExpr(num_a + num_b, tuple(den))

    __radd__ = __add__

    def __neg__(self) -> RatExpr:
        return RatExpr(-self.num, self.den)

    def __sub__(self, other) -> RatExpr:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatExpr:
        return (-self) + other

    def __mul__(self, other) -> RatExpr:
        if isinstance(other, (int, Fraction, SparsePoly)):
            return RatExpr(self.num * other, self.den)
        if isinstance(other, RatExpr):
            if self.arity != other.arity:
                raise ArityMismatch(f"arity {self.arity} != {other.arity}")
            return RatExpr(self.num * other.num, self.den + other.den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> RatExpr:
        if k < 0:
            raise ValueError("negative power of a rational expression")
        out = RatExpr.one(self.arity)
        for _ in range(k):
            out = out * self
        return out

    # -- normalization and equality ------------------------------------

    def reduced(self) -> RatExpr:
        """Greedily cancel denominator factors dividing the numerator exactly.

        Each pass tries every distinct factor once, in character order, and
        passes repeat until one cancels nothing.  Two rules skip attempts that
        cannot succeed, so the same divisions succeed in the same order as
        without them and the result is identical:

        * every factor ``1 - T^w`` vanishes at ``T = 1``, so when the
          numerator at ``T = 1`` is a nonzero polynomial in y, nothing more
          can cancel;
        * a factor that failed once is never retried: the numerator only
          shrinks by exact quotients, and if ``N = (1 - T^v) N'`` with
          ``1 - T^w`` dividing ``N'``, it would divide ``N`` too.

        The pass order matters: with ``den = [u, u, 2u]`` and
        ``N = (1 - T^u)(1 - T^{2u})`` the passes end at ``1 / (1 - T^u)``,
        where dividing by ``u`` first as often as possible would end at
        ``(1 + T^u) / (1 - T^{2u})``.

        Idempotent; a zero numerator cancels every factor (0 = 0 * d).
        """
        if self.num.is_zero:
            return RatExpr(self.num, ())
        num = self.num
        den = list(self.den)
        failed: set[Character] = set()
        progress = not _nonzero_at_one(num)
        while progress:
            progress = False
            for w in sorted(set(den) - failed, key=lambda w: w.coeffs):
                try:
                    num = num.div_by_one_minus(w)
                except NotDivisible:
                    failed.add(w)
                    continue
                den.remove(w)
                if _nonzero_at_one(num):
                    return RatExpr(num, tuple(den))
                progress = True
        return RatExpr(num, tuple(den))

    def evaluate(self, tvals: Sequence[Fraction], yval: Coeff) -> Coeff:
        total = Fraction(self.num.evaluate(tvals, yval))
        for w in self.den:
            v = Fraction(1)
            for val, e in zip(tvals, w.coeffs):
                if e:
                    v *= Fraction(val) ** e
            if v == 1:
                raise DenominatorVanishes(f"1 - T^{w.coeffs} vanishes at the point")
            total /= 1 - v
        return _norm(total)

    def equivalent(self, other) -> bool:
        """Decide equality as rational functions, exactly.

        Both numerators are cross-multiplied by the denominator factors the
        other side has and they lack, and the products are compared term by
        term; nothing is evaluated.  To locate a mismatch, call
        :meth:`witness` after this returns False.
        """
        other = self._coerce(other)
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} != {other.arity}")
        mine, theirs = _multiset(self.den), _multiset(other.den)
        left = self.num
        right = other.num
        for w, k in theirs.items():
            for _ in range(k - min(k, mine.get(w, 0))):
                left = left.mul_one_minus(w)
        for w, k in mine.items():
            for _ in range(k - min(k, theirs.get(w, 0))):
                right = right.mul_one_minus(w)
        return left.terms == right.terms

    def witness(self, other, seed: int = 0) -> str:
        """Where two expressions that are not :meth:`equivalent` differ, as
        one line: the first of the :func:`sample_points` drawn from ``seed``
        that separates them, with both values, as in
        ``differs at T=(2/3, 5/7), y=-3/4: 1/2 != 3/5``.  When every seeded
        point agrees, which proves nothing about equality, the line is
        ``differs; no witness among the seeded points``.
        """
        other = self._coerce(other)
        for tvals, yval in sample_points(self.arity, seed):
            mine, theirs = self.evaluate(tvals, yval), other.evaluate(tvals, yval)
            if mine != theirs:
                return f"differs at T=({', '.join(map(str, tvals))}), y={yval}: {mine} != {theirs}"
        return "differs; no witness among the seeded points"

    # -- substitutions ---------------------------------------------------

    def subs_y(self, value: Coeff) -> RatExpr:
        return RatExpr(self.num.subs_y(value), self.den)

    def apply_map(self, images: Sequence[Character]) -> RatExpr:
        num = self.num.apply_map(images)
        den = []
        for w in self.den:
            img = SparsePoly.monomial(w, 0, 1).apply_map(images)
            (m,) = img.terms
            if m.char.is_zero():
                raise DenominatorVanishes(f"map sends denominator factor {w.coeffs} to 1 - T^0")
            den.append(m.char)
        return RatExpr(num, tuple(den))

    def pad_to(self, arity: int) -> RatExpr:
        if arity == self.arity:
            return self
        return RatExpr(self.num.pad_to(arity), tuple(w.padded(arity) for w in self.den))

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        groups = _multiset(self.den)
        parts = []
        for w in sorted(groups, key=lambda w: w.coeffs):
            k = groups[w]
            factor = f"(1 - {_char_str(w)})"
            parts.append(factor if k == 1 else f"{factor}^{k}")
        den = " ".join(parts)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num} / {den}"

    __repr__ = __str__


def hfactor_expr(w: Character) -> RatExpr:
    """The multiplicative factor ``(1 + y T^w) / (1 - T^w)`` of a tangent
    weight ``w`` (must be nonzero)."""
    if w.is_zero():
        raise DivisionByZero("h-factor of the zero weight")
    num = SparsePoly.from_terms(w.arity, [(Monomial(w, 1), 1), (Monomial(Character.zero(w.arity), 0), 1)])
    return RatExpr(num, (w,))


def hfactor_minus_one_expr(w: Character) -> RatExpr:
    """``h(T^w) - 1 = (1 + y) T^w / (1 - T^w)``, the factor of a punctured
    line C*."""
    if w.is_zero():
        raise DivisionByZero("h-factor of the zero weight")
    num = SparsePoly.from_terms(w.arity, [(Monomial(w, 1), 1), (Monomial(w, 0), 1)])
    return RatExpr(num, (w,))
