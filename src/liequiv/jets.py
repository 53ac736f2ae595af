"""Coordinate registry of the extended jet-and-element space.

For dimension N the space carries independents (t, x1..xN), dependents
(u1..uN, p, rho), first-order jets, the second-order jets of the velocity
components (spatial pairs stored with sorted indices, plus the mixed t-x
jets referenced by second prolongation), and the constitutive coordinates:
the symmetric stress components Pi^{ij} declared over all velocity-gradient
jets, the state functions G and H declared over (p, rho), and one coordinate
Pi^{ij}_{kl} for each formal derivative of a stress component by a gradient
jet.

Every coordinate has a frozen ASCII name (documented in docs/names.md):
``t``, ``x2``, ``u1``, ``p``, ``rho``, ``u1_t``, ``u1_x2``, ``p_x1``,
``rho_t``, ``u1_x1x2``, ``u1_tx2``, ``Pi12``, ``Pi12_d_u1x2``, ``G``,
``G_p``, ``H``.  Registries are immutable after construction and safe to
share.
"""

from __future__ import annotations

from .expr import (COORD, MONO_ONE, Atom, Expr, Monomial, UnknownSymbolError,
                   _first_key, coordinate, derivative_of, derive,
                   function_symbol)


class UnsupportedDimensionError(Exception):
    """Spatial dimension outside {1, 2, 3}."""


class JetOrderError(Exception):
    """A total derivative would leave the registered order-2 jet space."""


class JetRegistry:
    """Immutable catalogue of every coordinate of the extended space."""

    def __init__(self, dim: int):
        if dim not in (1, 2, 3):
            raise UnsupportedDimensionError(
                f"dimension must be 1, 2 or 3, got {dim!r}")
        self.dim = dim
        rng = range(1, dim + 1)

        self.t = coordinate("t")
        self.x = tuple(coordinate(f"x{i}") for i in rng)
        self.u = tuple(coordinate(f"u{k}") for k in rng)
        self.p = coordinate("p")
        self.rho = coordinate("rho")

        self.u_t = tuple(coordinate(f"u{k}_t") for k in rng)
        self.u_x = {(k, l): coordinate(f"u{k}_x{l}") for k in rng for l in rng}
        self.p_t = coordinate("p_t")
        self.p_x = tuple(coordinate(f"p_x{i}") for i in rng)
        self.rho_t = coordinate("rho_t")
        self.rho_x = tuple(coordinate(f"rho_x{i}") for i in rng)

        self.u_xx = {(k, l, j): coordinate(f"u{k}_x{l}x{j}")
                     for k in rng for l in rng for j in rng if l <= j}
        self.u_tx = {(k, l): coordinate(f"u{k}_tx{l}") for k in rng for l in rng}

        gradient_args = tuple(f"u{k}_x{l}" for k in rng for l in rng)
        self.pi = {(i, j): function_symbol(f"Pi{i}{j}", gradient_args)
                   for i in rng for j in rng if i <= j}
        self.pi_d = {(i, j, k, l): derivative_of(self.pi[(i, j)], f"u{k}_x{l}")
                     for (i, j) in self.pi for k in rng for l in rng}
        self.g = function_symbol("G", ("p", "rho"))
        self.h = function_symbol("H", ("p", "rho"))

        self._space = (
            (self.t,) + self.x + self.u + (self.p, self.rho)
            + self.u_t + tuple(self.u_x[k] for k in sorted(self.u_x))
            + (self.p_t,) + self.p_x + (self.rho_t,) + self.rho_x
            + tuple(self.u_xx[k] for k in sorted(self.u_xx))
            + tuple(self.u_tx[k] for k in sorted(self.u_tx))
            + tuple(self.pi[k] for k in sorted(self.pi))
            + tuple(self.pi_d[k] for k in sorted(self.pi_d))
            + (self.g, self.h)
        )
        by_name = {}
        for a in self._space:
            if a.name in by_name:
                raise ValueError(f"duplicate coordinate registration: {a.name}")
            by_name[a.name] = a
        self._by_name = by_name

        adv = {}
        for k in rng:
            adv[(self.u[k - 1], self.t)] = self.u_t[k - 1]
            for l in rng:
                adv[(self.u[k - 1], self.x[l - 1])] = self.u_x[(k, l)]
                adv[(self.u_x[(k, l)], self.t)] = self.u_tx[(k, l)]
                adv[(self.u_t[k - 1], self.x[l - 1])] = self.u_tx[(k, l)]
                for j in rng:
                    pair = (min(l, j), max(l, j))
                    adv[(self.u_x[(k, l)], self.x[j - 1])] = self.u_xx[(k,) + pair]
        adv[(self.p, self.t)] = self.p_t
        adv[(self.rho, self.t)] = self.rho_t
        for i in rng:
            adv[(self.p, self.x[i - 1])] = self.p_x[i - 1]
            adv[(self.rho, self.x[i - 1])] = self.rho_x[i - 1]
        self._advance = adv

        # Names of the coordinates a total derivative chains through, in
        # registry order; second-order and mixed jets catch out-of-order input.
        self._chain = {c.name: c for c in (
            self.u + (self.p, self.rho) + self.u_t
            + tuple(self.u_x[k] for k in sorted(self.u_x))
            + (self.p_t,) + self.p_x + (self.rho_t,) + self.rho_x
            + tuple(self.u_xx[k] for k in sorted(self.u_xx))
            + tuple(self.u_tx[k] for k in sorted(self.u_tx)))}

    # -- lookups ---------------------------------------------------------

    @property
    def independents(self) -> tuple:
        return (self.t,) + self.x

    def coordinate(self, name: str) -> Atom:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown coordinate: {name}") from None

    def has_name(self, name: str) -> bool:
        return name in self._by_name

    def pi_at(self, i: int, j: int) -> Atom:
        """Stress component with the symmetric pair resolved to i <= j."""
        return self.pi[(i, j) if i <= j else (j, i)]

    def pi_d_at(self, i: int, j: int, k: int, l: int) -> Atom:
        if i > j:
            i, j = j, i
        return self.pi_d[(i, j, k, l)]

    def pi_pairs(self) -> tuple:
        return tuple(sorted(self.pi))

    def space_atoms(self) -> tuple:
        return self._space

    def advance(self, c: Atom, w: Atom):
        """The coordinate representing d(c)/d(w), or None when unregistered."""
        return self._advance.get((c, w))

    def counts(self) -> tuple:
        return (self.dim + 1, self.dim + 2, len(self.pi) + len(self.pi_d) + 2)


def build_registry(dim: int) -> JetRegistry:
    return JetRegistry(dim)


def total_derivative(e, w: Atom, reg: JetRegistry) -> Expr:
    """Total derivative along the independent coordinate ``w``.

    One ``derive`` pass over the terms of the input, with the image table of
    D_w: ``w`` goes to 1, each dependent or jet coordinate ``c`` to its
    advanced jet ``c_w``, and each function atom ``f`` (Pi, G, H and their
    formal derivatives) to ``sum_n f_n * n_w`` over its declared arguments
    ``n``, so that the constitutive chain terms, e.g.
    D_{x^j} Pi^{ij} = sum_kl Pi^{ij}_{kl} u^k_{x^l x^j}, fall out of the same
    rule.  Every other atom, the other independents and the ?constants
    included, is constant.  An input depending on a coordinate with no
    registered advance along ``w`` (a second-order jet, or p_x1 under a
    second derivative of p) raises JetOrderError, which names the first
    such coordinate in registry order.
    """
    if w not in reg.independents:
        raise UnknownSymbolError(f"{w.name} is not an independent coordinate")
    stuck = set()

    def along(n):
        # D_w of the coordinate named n as a monomial, None when constant
        if n == w.name:
            return MONO_ONE
        c = reg._chain.get(n)
        a = c and reg._advance.get((c, w))
        if c and not a:
            stuck.add(n)
        return a and Monomial._trusted(((a, 1),))

    def image(a):
        if a.kind == COORD:
            m = along(a.name)
            return m and ((m, 1),)
        # f_n sorts before every coordinate, so f_n * n_w is canonical
        return sorted(
            ((Monomial._trusted(((derivative_of(a, n), 1),) + m.factors), 1)
             for n in a.args if (m := along(n)) is not None), key=_first_key)

    out = derive(e, image)[0]
    if stuck:
        first = next(n for n in reg._chain if n in stuck)
        raise JetOrderError(
            f"d/d{w.name} of an expression depending on {first} "
            "leaves the registered jet space")
    return out
