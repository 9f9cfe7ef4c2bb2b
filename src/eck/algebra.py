"""Sparse exact arithmetic for torus characters, Laurent polynomials and
rational expressions with factored denominators.

The coefficient field is Q (``fractions.Fraction``, with plain ints kept
wherever possible).  A monomial is ``T^w * y^k`` where ``w`` is an integer
character of a fixed-rank lattice and ``k >= 0``; ``T^w`` stands for
``e^{-w}``, so ``T^u * T^v = T^{u+v}`` and character entries may be negative.
Rational expressions keep their denominators *factored* as a multiset of
nonzero characters, each meaning a factor ``(1 - T^w)``.  Denominators are
never expanded unless an operation requires it (equality by
cross-multiplication, exact reduction).  Since every denominator is a
product of such factors, the only division is exact division by one
``1 - T^w``: :meth:`SparsePoly.div_by_one_minus` on monomials and
:func:`_over_one_minus` on :class:`PackedBox` keys (``1 - z^a``, either sign).

Character entries are ordered ``(t, t_1, ..., t_m)``; the rendered variable
for ``t`` is ``T`` and for ``t_i`` is ``Ti``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

Coeff = int | Fraction


class ArityMismatch(ValueError):
    """Operands live over character lattices of different rank."""


class NotDivisible(ArithmeticError):
    """Exact polynomial division has a nonzero remainder."""


class DivisionByZero(ZeroDivisionError):
    """Division by zero: a zero character in a denominator or divisor (the
    factor 1 - T^0 vanishes identically)."""


class DenominatorVanishes(ZeroDivisionError):
    """A substitution sends some denominator factor 1 - T^w to zero."""


class IllFormedMap(ValueError):
    """A lattice map's image list does not match the source lattice."""


def _norm(c: Coeff) -> Coeff:
    """Prefer ints over integral Fractions so reprs stay tidy."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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


@dataclass(frozen=True, slots=True)
class SparsePoly:
    """Sparse Laurent polynomial in T-variables and y over Q.

    ``terms`` maps :class:`Monomial` to a nonzero coefficient.  Instances are
    treated as immutable: every operation returns a new polynomial, so values
    can be shared freely.

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

    def __str__(self) -> str:
        from .render import poly_text

        return poly_text(self)

    __repr__ = __str__


# -- the packed one-variable ring ---------------------------------------------


def weight_box(weights: Iterable[Character], arity: int) -> tuple[list[int], list[int]]:
    """Per-coordinate bounds ``(lo, hi)`` of the Newton box of
    ``prod (1 - T^w)`` over ``weights`` (with repeats): the box of a product
    is the sum of its factors' boxes ``[min(0, w), max(0, w)]``."""
    weights = list(weights)
    return (
        [sum(min(0, w.coeffs[k]) for w in weights) for k in range(arity)],
        [sum(max(0, w.coeffs[k]) for w in weights) for k in range(arity)],
    )


class PackedBox:
    """A Kronecker map (Fateman 2005) of the monomials ``T^e y^k`` in the box
    ``lo <= e <= hi``, ``0 <= k < ystride``, to integer keys of one variable
    ``z``: ``T^e y^k -> z^(ystride * phi(e) + k)`` with the mixed-radix
    ``phi(e) = sum_k c_k e_k`` and ``c_k = prod_{j<k} (hi_j - lo_j + 1)``.

    A packed polynomial is a dict from key to nonzero coefficient.  ``phi`` is
    additive and ``y -> z``, so packing is a ring homomorphism: any exact
    sequence of sums and products, carried out on keys, gives the image of
    its result.  On the box the map is injective, so when the result's
    support lies in the box :meth:`unpack` recovers it exactly, whatever the
    intermediate steps passed through.  (A line such as
    ``t_i -> 2^(i-1) s`` is not injective there: it sends ``T1^2 - T2`` to 0.)
    """

    __slots__ = ("lo", "radix", "ystride", "_base")

    def __init__(self, lo: Sequence[int], hi: Sequence[int], ystride: int) -> None:
        radix = [1]
        for k in range(len(lo) - 1):
            radix.append(radix[-1] * (hi[k] - lo[k] + 1))
        self.lo = tuple(lo)
        self.radix = radix
        self.ystride = ystride
        self._base = sum(c * x for c, x in zip(radix, lo))

    def key(self, e: Sequence[int]) -> int:
        """The key of ``T^e`` (add ``k`` for ``T^e y^k``)."""
        return self.ystride * sum(c * x for c, x in zip(self.radix, e))

    def monomial(self, key: int) -> Monomial:
        """The monomial of the box that packs to ``key``."""
        digits, packed = [], key // self.ystride - self._base
        for r in reversed(self.radix):
            digits.append(packed // r)
            packed %= r
        return Monomial(Character(tuple(d + b for d, b in zip(reversed(digits), self.lo))), key % self.ystride)

    def unpack(self, f: dict[int, Coeff]) -> SparsePoly:
        """The polynomial in the box whose image is ``f``."""
        return SparsePoly(len(self.lo), {self.monomial(k): _norm(c) for k, c in f.items()})


def _times_binomial(f: dict[int, Coeff], step: int, sign: int) -> dict[int, Coeff]:
    """Multiply a packed polynomial by ``1 + sign * z^step``: shift and add
    (``sign = 1``) or subtract (``sign = -1``).

    >>> _times_binomial({0: 1, 1: 2}, 1, -1)
    {0: 1, 1: 1, 2: -2}
    >>> _times_binomial({0: 1, 2: -1}, 2, 1)
    {0: 1, 4: -1}
    """
    out = dict(f)
    for key, c in f.items():
        k = key + step
        nc = out.get(k, 0) + sign * c
        if nc:
            out[k] = nc
        else:
            del out[k]
    return out


def _add_into(total: dict, f: Mapping) -> None:
    """Add the sparse polynomial ``f`` to ``total`` in place (any key type; no stored zeros)."""
    for k, c in f.items():
        nc = total.get(k, 0) + c
        if nc:
            total[k] = nc
        else:
            del total[k]


def _over_one_minus(f: dict[int, Coeff], step: int, top: int) -> dict[int, Coeff] | None:
    """Exact quotient of a packed polynomial by ``1 - z^a`` (``a = step``,
    either sign) by prefix sums per residue class mod ``|a|``, or None when a
    remainder is left or a quotient key would pass ``top``.  For ``a < 0``,
    ``1 - z^a = -z^a (1 - z^-a)``: the sums are bounded by ``top + a``,
    shifted by ``-a`` and negated.

    >>> _over_one_minus({0: 1, 2: -1}, 1, 1)
    {0: 1, 1: 1}
    >>> _over_one_minus({0: 1, 2: -1}, -1, 2)
    {1: -1, 2: -1}
    """
    size = abs(step)
    shift = 0 if step > 0 else size
    last = top + size - shift
    lines: dict[int, list[int]] = {}
    for key in sorted(f):
        lines.setdefault(key % size, []).append(key)
    out: dict[int, Coeff] = {}
    for keys in lines.values():
        running: Coeff = 0
        for j, key in enumerate(keys):
            running += f[key]
            if not running:
                continue
            if j + 1 == len(keys) or keys[j + 1] > last:
                return None
            c = -running if shift else running
            for k in range(key + shift, keys[j + 1] + shift, size):
                out[k] = c
    return out


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


def _lift(num: SparsePoly, have: Counter, want: Counter) -> SparsePoly:
    """Lift a numerator over the denominator factors ``have`` to one over the
    union with ``want``: multiply by ``1 - T^w`` once for each copy of ``w``
    that ``want`` holds beyond ``have``, in the order of ``want``."""
    for w, k in want.items():
        for _ in range(k - have.get(w, 0)):
            num = num.mul_one_minus(w)
    return num


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
        mine, theirs = Counter(self.den), Counter(other.den)
        common = mine | theirs
        return RatExpr(_lift(self.num, mine, common) + _lift(other.num, theirs, common), tuple(common.elements()))

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
        mine, theirs = Counter(self.den), Counter(other.den)
        return _lift(self.num, mine, theirs).terms == _lift(other.num, theirs, mine).terms

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

    def __str__(self) -> str:
        from .render import ratexpr_text

        return ratexpr_text(self)

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
