"""Torus conventions for quadrics in projective space and their affine cones.

For ``n = 2m`` the quadratic form is ``sum_{i=1..m} x_{-i} x_i`` on C^n with
coordinates indexed ``(-m, ..., -1, 1, ..., m)``; for ``n = 2m + 1`` it is
``x_0^2 + sum x_{-i} x_i`` with the extra index 0.  The torus has rank
``m + 1``; its character lattice is spanned by ``t`` (the cone scaling) and
``t_1, ..., t_m``, with ``t_{-i} = -t_i`` and ``t_0 = 0``.

* coordinate ``x_j`` of P^{n-1} carries the projective weight ``t_j``;
* coordinate ``x_j`` of C^n carries the affine weight ``t + t_j``;
* the fixed points of P^{n-1} are the coordinate points ``p_j``, and the
  tangent weights of P^{n-1} at ``p_i`` are ``{t_j - t_i : j != i}``.

Characters always have arity ``m + 1`` (``t`` plus ``t_1..t_m``), even for
purely projective data, so projective and affine computations for the same
``n`` share one lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Character


@dataclass(frozen=True, slots=True)
class GeometryConfig:
    """Index set, lattice arity and weight constructors for a given ``n``.

    >>> GeometryConfig(5).indices
    (-2, -1, 0, 1, 2)
    >>> GeometryConfig(4).indices
    (-2, -1, 1, 2)
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def odd(self) -> bool:
        return self.n % 2 == 1

    @property
    def arity(self) -> int:
        return self.m + 1

    @property
    def indices(self) -> tuple[int, ...]:
        neg = tuple(range(-self.m, 0))
        pos = tuple(range(1, self.m + 1))
        return neg + ((0,) if self.odd else ()) + pos

    def indices_for(self, nsub: int) -> tuple[int, ...]:
        """Indices of the coordinate subspace spanned by the first ``nsub``
        coordinates (pairs 1..nsub//2, plus 0 when odd).  Parity must match
        so the 0-index coordinate is shared."""
        if nsub < 0 or nsub > self.n:
            raise ValueError(f"subspace size {nsub} out of range for n={self.n}")
        if nsub % 2 != self.n % 2:
            raise ValueError(f"subspace size {nsub} has wrong parity for n={self.n}")
        msub = nsub // 2
        return tuple(j for j in self.indices if abs(j) <= msub)

    # -- characters -----------------------------------------------------

    @property
    def t(self) -> Character:
        return Character.basis(self.arity, 0)

    def pair_char(self, i: int) -> Character:
        if not 1 <= i <= self.m:
            raise ValueError(f"pair index {i} out of range 1..{self.m}")
        return Character.basis(self.arity, i)

    def proj_weight(self, j: int) -> Character:
        """The weight t_j of projective coordinate x_j (t_{-i} = -t_i, t_0 = 0)."""
        if j == 0:
            if not self.odd:
                raise ValueError("index 0 occurs only for odd n")
            return Character.zero(self.arity)
        if abs(j) > self.m:
            raise ValueError(f"index {j} out of range for n={self.n}")
        c = self.pair_char(abs(j))
        return c if j > 0 else -c

    def affine_weight(self, j: int) -> Character:
        """The weight t + t_j of affine coordinate x_j."""
        return self.t + self.proj_weight(j)

    def tangent_weights(self, i: int) -> tuple[Character, ...]:
        """Tangent weights {t_j - t_i : j != i} of P^{n-1} at the fixed
        point p_i, in index order."""
        if i not in self.indices:
            raise ValueError(f"{i} is not a fixed-point index for n={self.n}")
        wi = self.proj_weight(i)
        return tuple(self.proj_weight(j) - wi for j in self.indices if j != i)


def ambient_weights(n: int) -> list[Character]:
    """Weights of the C^n representation, in index order.

    >>> [w.coeffs for w in ambient_weights(3)]
    [(1, -1), (1, 0), (1, 1)]
    """
    geo = GeometryConfig(n)
    return [geo.affine_weight(j) for j in geo.indices]
