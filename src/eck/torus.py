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
``n`` share one lattice.  The index set and the weights depend on ``n``
alone: each is built once per ``n`` and shared, read-only, by every
:class:`GeometryConfig` of that ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping

from .algebra import Character


@cache
def _indices(n: int) -> tuple[int, ...]:
    """The coordinate indices for ``n``, in order."""
    m = n // 2
    return tuple(range(-m, 0)) + ((0,) if n % 2 else ()) + tuple(range(1, m + 1))


@cache
def _weights(n: int) -> Mapping[int, tuple[Character, Character]]:
    """``j -> (t_j, t + t_j)`` over the indices for ``n``."""
    arity = n // 2 + 1
    proj = {0: Character.zero(arity)} if n % 2 else {}
    for i in range(1, arity):
        proj[i] = Character.basis(arity, i)
        proj[-i] = -proj[i]
    t = Character.basis(arity, 0)
    return MappingProxyType({j: (w, t + w) for j, w in proj.items()})


def _clear_tables() -> None:
    """Empty the per-``n`` tables."""
    _indices.cache_clear()
    _weights.cache_clear()


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
        return _indices(self.n)

    def indices_for(self, nsub: int) -> tuple[int, ...]:
        """Indices of the coordinate subspace spanned by the first ``nsub``
        coordinates (pairs 1..nsub//2, plus 0 when odd).  Parity must match
        so the 0-index coordinate is shared."""
        if nsub < 0 or nsub > self.n:
            raise ValueError(f"subspace size {nsub} out of range for n={self.n}")
        if nsub % 2 != self.n % 2:
            raise ValueError(f"subspace size {nsub} has wrong parity for n={self.n}")
        return _indices(nsub)

    # -- characters -----------------------------------------------------

    @property
    def t(self) -> Character:
        return Character.basis(self.arity, 0)

    def _weight_pair(self, j: int) -> tuple[Character, Character]:
        pair = _weights(self.n).get(j)
        if pair is None:
            if j == 0:
                raise ValueError("index 0 occurs only for odd n")
            raise ValueError(f"index {j} out of range for n={self.n}")
        return pair

    def proj_weight(self, j: int) -> Character:
        """The weight t_j of projective coordinate x_j (t_{-i} = -t_i, t_0 = 0)."""
        return self._weight_pair(j)[0]

    def affine_weight(self, j: int) -> Character:
        """The weight t + t_j of affine coordinate x_j."""
        return self._weight_pair(j)[1]

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
