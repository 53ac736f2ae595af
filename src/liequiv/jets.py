"""Coordinate registry of the extended jet-and-element space.

For dimension N the space carries independents (t, x1..xN), dependents
(u1..uN, p, rho), their first-order jets, the second-order jets u_xx and
u_tx of the velocity components, and the constitutive coordinates:
the symmetric stress components Pi^{ij} declared over all velocity-gradient
jets, one coordinate Pi^{ij}_{kl} for each formal derivative of a stress
component by a gradient jet, and the state functions G and H declared over
(p, rho).

Each coordinate is registered once, by one ``register`` call in
``JetRegistry.__init__`` that fixes all three of its entries: its place in
the tuple ``space``, in the order the calls run; its frozen name in the
dict ``by_name``; and each pair (c, w) it advances in the dict ``advance``,
which maps (c, w) to the coordinate c_w representing d(c)/d(w), a jet along
t or x or Pi^{ij}_{kl} for Pi^{ij} along u^k_{x_l}.  A pair with no
registered advance has no entry.  Every jet comes from one local rule,
``jet(d, *ws)``: the jet of the dependent d along the independents ws,
sorted with t first, is named d.name + "_" + the names of ws and advances
the jet of d lacking ws[i] along ws[i], for each i; the table ``jets`` maps
(d, ws) to it and (d, ()) to d.  The head of ``space``, ``point``, is
(t, x1..xN, u1..uN, p, rho), and the head of that, ``independents``, is
(t, x1..xN); each family attribute (``u_x``, ``pi``, ...) holds its
coordinates in ``space`` order.

``ansatz`` is the classical ansatz of the equivalence generators, the one
table of the unprolonged directions: an ordered dict {direction: frozenset
of admitted atoms} over ``point``, the Pi components by sorted pair, then G
and H.  A coefficient along a point direction lives on the point; along
Pi^{ij}, on the velocity-gradient jets and the Pi components; along G or H,
on (p, rho, G, H).

Every coordinate has a frozen ASCII name (documented in docs/names.md):
``t``, ``x2``, ``u1``, ``p``, ``rho``, the jets by their rule (``u1_x2``,
``u1_tx2``, ``rho_t``), ``Pi12``, ``Pi12_d_u1x2``, ``G``, ``G_p``, ``H``.
Registries are immutable after construction and safe to share.
"""

from __future__ import annotations

from .expr import (COORD, MONO_ONE, Atom, Expr, Monomial, UnknownSymbolError,
                   coordinate, derivative_of, derive, function_symbol)


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
        space, self.by_name, self.advance = [], {}, {}

        def register(a: Atom, *advances: tuple) -> Atom:
            # a joins the space under its name, as c_w for each (c, w) given
            if a.name in self.by_name:
                raise ValueError(f"duplicate coordinate registration: {a.name}")
            space.append(a)
            self.by_name[a.name] = a
            self.advance.update(dict.fromkeys(advances, a))
            return a

        self.t = t = register(coordinate("t"))
        self.x = x = tuple(register(coordinate(f"x{i}")) for i in rng)
        self.u = u = tuple(register(coordinate(f"u{k}")) for k in rng)
        self.p = p = register(coordinate("p"))
        self.rho = rho = register(coordinate("rho"))
        self.independents = (t,) + x
        self.point = tuple(space)

        jets = self.jets = {(d, ()): d for d in u + (p, rho)}

        def jet(d: Atom, *ws: Atom) -> Atom:
            # d along the sorted independents ws, the advance of each jet of
            # d one order lower along the index it lacks
            jets[d, ws] = a = register(
                coordinate(d.name + "_" + "".join(w.name for w in ws)),
                *((jets[d, ws[:i] + ws[i + 1:]], w) for i, w in enumerate(ws)))
            return a

        self.u_t = tuple(jet(d, t) for d in u)
        self.u_x = u_x = {(k, l): jet(u[k - 1], x[l - 1])
                          for k in rng for l in rng}
        self.p_t, self.p_x = jet(p, t), tuple(jet(p, w) for w in x)
        self.rho_t, self.rho_x = jet(rho, t), tuple(jet(rho, w) for w in x)
        self.u_xx = {(k, l, j): jet(u[k - 1], x[l - 1], x[j - 1])
                     for k in rng for l in rng for j in rng if l <= j}
        self.u_tx = {(k, l): jet(u[k - 1], t, x[l - 1])
                     for k in rng for l in rng}

        gradient_args = tuple(a.name for a in u_x.values())
        self.pi = {(i, j): register(function_symbol(f"Pi{i}{j}", gradient_args))
                   for i in rng for j in rng if i <= j}
        self.pi_d = {ij + kl: register(derivative_of(s, a.name), (s, a))
                     for ij, s in self.pi.items() for kl, a in u_x.items()}
        self.g = register(function_symbol("G", ("p", "rho")))
        self.h = register(function_symbol("H", ("p", "rho")))
        self.space = tuple(space)

        # the classical ansatz: each base direction in slot order, with the
        # coordinates its coefficient may depend on
        point = frozenset(self.point)
        gradient = frozenset(u_x.values()) | frozenset(self.pi.values())
        state = frozenset((p, rho, self.g, self.h))
        self.ansatz = {**dict.fromkeys(self.point, point),
                       **dict.fromkeys(self.pi.values(), gradient),
                       self.g: state, self.h: state}

        # the coordinates a total derivative chains through, by name in
        # space order; a top-order jet among them raises JetOrderError
        self._chain = {c.name: c for c in jets.values()}

    # -- lookups ---------------------------------------------------------

    def pi_at(self, i: int, j: int) -> Atom:
        """Stress component with the symmetric pair resolved to i <= j."""
        return self.pi[(i, j) if i <= j else (j, i)]

    def pi_pairs(self) -> tuple:
        return tuple(self.pi)


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
        a = c and reg.advance.get((c, w))
        if c and not a:
            stuck.add(n)
        return None if a is None else Monomial._trusted(((a, 1),))

    def image(a):
        if a.kind == COORD:
            m = along(a.name)
            return None if m is None else ((m, 1),)
        # f_n sorts before every coordinate, so f_n * n_w is canonical
        return [(Monomial._trusted(((derivative_of(a, n), 1),) + m), 1)
                for n in a.args if (m := along(n)) is not None]

    out = derive(e, image)
    if stuck:
        first = next(n for n in reg._chain if n in stuck)
        raise JetOrderError(
            f"d/d{w.name} of an expression depending on {first} "
            "leaves the registered jet space")
    return out
