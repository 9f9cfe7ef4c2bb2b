"""chi_y genera of the projective kinds in closed form, independent of the
fixed-point machinery: integer arithmetic on ``{y-power: coefficient}`` only.

Write ``[k] = sum_{p<k} (-y)^p``, the genus of P^{k-1}.  Then

* ``P_n = [n]``;
* ``Q_n = [n-1] + (-y)^((n-2)/2)``, the extra term (the second middle class
  of an even-dimensional quadric) for even ``n`` only;
* ``X_n = 2[n-1] - [n-2]``, two hyperplanes glued along their meet;
* ``Qc = P - Q`` and ``Xc = P - X`` by additivity.
"""


def _bracket(k: int) -> dict[int, int]:
    return {p: (-1) ** p for p in range(k)}


def _combine(*parts: tuple[int, dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for scale, poly in parts:
        for p, c in poly.items():
            out[p] = out.get(p, 0) + scale * c
    return {p: c for p, c in out.items() if c}


def genus_closed_form(kind: str, n: int) -> dict[int, int]:
    """chi_y of ``kind`` in P^{n-1} as ``{y-power: coefficient}``, zeros dropped."""
    p = _bracket(n)
    middle = {(n - 2) // 2: (-1) ** ((n - 2) // 2)} if n % 2 == 0 else {}
    q = _combine((1, _bracket(n - 1)), (1, middle))
    x = _combine((2, _bracket(n - 1)), (-1, _bracket(n - 2)))
    forms = {"P": p, "Q": q, "X": x, "Qc": _combine((1, p), (-1, q)), "Xc": _combine((1, p), (-1, x))}
    return _combine((1, forms[kind]))
