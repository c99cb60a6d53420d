"""The three workloads: seeded inputs, call sequences and checks.

A workload is a sequence of *passes*.  Pass ``i`` is a list of operations
drawn from the generator ``default_rng([seed, i])``, so every pass has the
same mix of operations on fresh inputs, and the same seed gives the same
inputs.  An operation builds its qproxim objects from plain arrays and calls
the public API, so no object (and no cache hanging off one) is shared
between operations or passes.  Each operation may name a reference
computation (ground truth, run outside the timed call) and a check of the
result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qproxim import algebra as al
from qproxim import classical as cl
from qproxim import crossedprod as cp
from qproxim import lipschitz as lp
from qproxim import opcore as oc
from qproxim import statemetrics as sm
from qproxim import tunnels as tn

BL_GAP = 1e-4
BL_REPLICAS = 2             # times each (points, M) cell appears in a pass
ORACLE_TOL = 1e-6
GH_LIMIT = 0.95
GH_TOL = 1e-3
CONVERSION_TOL = 1e-6
TUNNEL_GAP = 1e-5
TARGET_COUNT = 10
CP_CONFIGS = (
    # eps, t, window dimension, expected first failing chain item
    (1.0, 1, 1425, None),
    (1.0, 2, 3447, None),
    (0.75, 1, 2267, "hn4-support-identity"),
)


@dataclass
class Op:
    kind: str
    run: object                 # () -> result; the timed call
    check: object               # (result, ref) -> None or a failure message
    reference: object = None    # (result) -> ref; untimed ground truth


def _space(dist, base):
    return cl.FinitePointedMetricSpace(np.array(dist), int(base))


def _draw_space(rng, n, scale):
    X = cl.random_space(n, rng, scale=scale)
    return X.dist, X.base


def _sub_measure(rng, n):
    w = rng.random(n)
    return w / w.sum() * rng.random()


def _diag_state(w):
    return al.StateVec(rho=oc.Operator.diagonal(w), trace_mass=float(w.sum()))


# ---------------------------------------------------------------------------
# bl-commutative: the spectral bracket solver against the LP oracle
# ---------------------------------------------------------------------------


def _bl_op(dist, base, w1, w2, M):
    def run():
        X = _space(dist, base)
        return sm.bl(al.function_algebra(X.n), lp.ClassicalLip(X), M,
                     _diag_state(w1), _diag_state(w2),
                     method="spectral", gap=BL_GAP)

    def reference(br):
        return sm.bl_lp_oracle(_space(dist, base), w1, w2, M)

    def check(br, oracle):
        if not br.lower - ORACLE_TOL <= oracle <= br.upper + ORACLE_TOL:
            return f"oracle {oracle} outside [{br.lower}, {br.upper}]"
        if br.width > BL_GAP:
            return (f"width {br.width} above gap {BL_GAP} "
                    f"({br.method}, {br.iterations} iterations)")
        return None

    return Op("bl", run, check, reference)


def bl_commutative(rng):
    """Every (points, M) cell of {3..6} x {0.5, 1, 2}, BL_REPLICAS times."""
    ops = []
    for _ in range(BL_REPLICAS):
        for n in (3, 4, 5, 6):
            for M in (0.5, 1.0, 2.0):
                dist, base = _draw_space(rng, n, 3.0)
                ops.append(_bl_op(dist, base, _sub_measure(rng, n),
                                  _sub_measure(rng, n), M))
    return ops


def bl_commutative_primer(rng):
    dist, base = _draw_space(rng, 3, 3.0)
    return [_bl_op(dist, base, _sub_measure(rng, 3), _sub_measure(rng, 3), 1.0)]


# ---------------------------------------------------------------------------
# tunnel-portfolio: bridges, compositions, target sets, conversions
# ---------------------------------------------------------------------------


def _cfg():
    return tn.ExtentConfig(gap=TUNNEL_GAP)


def _draw_bridge_pair(rng, n, m):
    """Two spaces whose bridge exists (exact pointed GH below GH_LIMIT)."""
    while True:
        X = cl.random_space(n, rng, scale=1.0)
        Y = cl.random_space(m, rng, scale=1.0)
        gh, tag = cl.gh_pointed(X, Y)
        if tag == "exact" and gh < GH_LIMIT:
            return (X.dist, X.base), (Y.dist, Y.base)


def _bridge_tunnel(x, y):
    X, Y = _space(*x), _space(*y)
    return tn.build_bridge_tunnel(X, Y, cl.build_bridge(X, Y))


def _bridge_extent_op(x, y):
    def run():
        return tn.extent(_bridge_tunnel(x, y), _cfg())

    def reference(rep):
        return cl.gh_pointed(_space(*x), _space(*y))

    def check(rep, ref):
        failed = [c["id"] for c in rep.checklist if not c["pass"]]
        if failed:
            return f"extent checklist failed: {failed}"
        gh, tag = ref
        if tag == "exact" and gh < GH_LIMIT and rep.total.upper > 2 * gh + GH_TOL:
            return f"extent {rep.total.upper} above 2 GH = {2 * gh}"
        return None

    return Op("bridge-extent", run, check, reference)


def _target_set_op(x, y, a_vals, seed):
    def run():
        t = _bridge_tunnel(x, y)
        a = oc.Operator.diagonal(a_vals)
        level = 1.25 * max(oc.opnorm(a) / t.M, t.lipT.eval(a), 1e-9)
        samples, info = tn.target_set_sample(t, a, level, count=TARGET_COUNT,
                                             seed=seed)
        return t.M, level, samples, info

    def check(res, _):
        M, level, samples, info = res
        if len(samples) != TARGET_COUNT:
            return f"{len(samples)} target samples, expected {TARGET_COUNT}"
        if info["fiber_min"] > level:
            return f"fiber minimum {info['fiber_min']} above level {level}"
        # b = rho(d) with max(||d||/M, Lip(d)) <= level, and rho contracts
        worst = max(oc.opnorm(b) for b in samples)
        if worst > M * level * (1 + 1e-9):
            return f"target sample norm {worst} above M level {M * level}"
        return None

    return Op("target-set", run, check)


def _identity_tunnel(dist, base, lam):
    X = _space(dist, base)
    alg = al.function_algebra(X.n, pin_index=X.base)
    e = oc.Operator.diagonal(np.maximum(1.0 - lam * X.dist[X.base], 0.0))
    return tn.identity_tunnel(alg, lp.ClassicalLip(X), e, 1.0)


def _compose_op(dist, base):
    def run():
        t1 = _identity_tunnel(dist, base, 0.03)
        t2 = _identity_tunnel(dist, base, 0.03)
        return tn.compose(t1, t2, 0.1, cfg=_cfg())

    def check(out, _):
        cc = out.composition_check
        return None if cc["ok"] else f"composition bound failed: {cc}"

    return Op("compose", run, check)


def _classical_compact_tunnel(x, y):
    """A compact tunnel C(X) <- C(X + Y) -> C(Y) over the optimal bridge."""
    X, Y = _space(*x), _space(*y)
    bridge = cl.build_bridge(X, Y)
    joint = cl.FinitePointedMetricSpace(bridge.joint, bridge.base_x)
    n = joint.n
    D = al.function_algebra(n, pin_index=bridge.base_x, label="C(Z)")
    algX = al.function_algebra(X.n, pin_index=X.base, label="C(X)")
    algY = al.function_algebra(Y.n, pin_index=Y.base, label="C(Y)")

    def push(start, size):
        def w(phi):
            weights = np.zeros(size)
            for z in range(n):
                mass = float(phi.pair(D.basis[z]).real)
                if mass > 1e-15:
                    inside = start <= z < start + size
                    weights[(z if inside else bridge.certificates[z]) - start] += mass
            return _diag_state(weights)
        return w

    def pull(start, size):
        def w(phi):
            weights = np.zeros(n)
            for i in range(size):
                weights[start + i] = float(phi.pair(
                    oc.Operator.diagonal(np.eye(size)[i])).real)
            return _diag_state(weights)
        return w

    to_y, to_x = push(X.n, Y.n), push(0, X.n)
    return tn.CompactTunnel(
        D=D, lipD=lp.ClassicalLip(joint), lipA=lp.ClassicalLip(X),
        lipB=lp.ClassicalLip(Y),
        pi=al.restriction_morphism(D, algX, list(range(X.n))),
        rho=al.restriction_morphism(D, algY, list(range(X.n, n))),
        mu_A=al.character_delta(algX, X.base),
        mu_B=al.character_delta(algY, Y.base),
        witness_AtoB=lambda phi: to_y(pull(0, X.n)(phi)),
        witness_BtoA=lambda psi: to_x(pull(X.n, Y.n)(psi)),
        witness_DtoA=to_x, witness_DtoB=to_y, label="classical-compact")


def _m2_compact_tunnel(derivations):
    alg = al.matrix_algebra(2)
    lip = lp.CommutatorDirac(tuple(oc.Operator.from_dense(d) for d in derivations))
    ident = al.identity_morphism(alg)

    def same(phi):
        return phi

    return tn.CompactTunnel(D=alg, lipD=lip, lipA=lip, lipB=lip, pi=ident,
                            rho=ident, mu_A=alg.pin, mu_B=alg.pin,
                            witness_AtoB=same, witness_BtoA=same,
                            witness_DtoA=same, witness_DtoB=same,
                            label="M2-identity")


def _compact_to_proper_op(kind, build, seed):
    def run():
        ct = build()
        eps = max(ct.pointed_extent_measured(samples=3, seed=seed), 1e-4)
        return tn.compact_to_tunnel(ct, eps, cfg=_cfg())

    def check(out, _):
        cc = out.composition_check
        return None if cc["ok"] else f"measured above bound: {cc}"

    return Op(kind, run, check)


def _proper_to_compact_op(dist, base, seed):
    def run():
        t = _identity_tunnel(dist, base, 0.002)
        r = max(1.0, 2 * _space(dist, base).diam())
        return tn.tunnel_to_compact(t, r, samples=3, seed=seed)

    def check(ct, _):
        if ct.measured > ct.bound + CONVERSION_TOL:
            return f"measured {ct.measured} above bound {ct.bound}"
        return None

    return Op("proper-to-compact", run, check)


def _hermitian_pair(rng):
    out = []
    for _ in range(2):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out.append((m + m.conj().T) / 2)
    return out


BRIDGE_SIZES = ((2, 3), (3, 4), (4, 5), (5, 2), (3, 3), (4, 4), (5, 5), (2, 5))
TARGET_SIZES = ((3, 4), (5, 2), (4, 4), (5, 3))


def tunnel_portfolio(rng):
    ops = []
    for n, m in BRIDGE_SIZES:
        ops.append(_bridge_extent_op(*_draw_bridge_pair(rng, n, m)))
    for n, m in TARGET_SIZES:
        x, y = _draw_bridge_pair(rng, n, m)
        ops.append(_target_set_op(x, y, rng.standard_normal(n) * 0.3,
                                  int(rng.integers(1 << 30))))
    for n in (3, 4, 3, 4):
        ops.append(_compose_op(*_draw_space(rng, n, 3.0)))
    for _ in range(4):
        x, y = _draw_space(rng, 3, 0.5), _draw_space(rng, 3, 0.5)
        ops.append(_compact_to_proper_op(
            "compact-to-proper", lambda x=x, y=y: _classical_compact_tunnel(x, y),
            int(rng.integers(1 << 30))))
    for _ in range(4):
        ops.append(_proper_to_compact_op(*_draw_space(rng, 3, 0.15),
                                         int(rng.integers(1 << 30))))
    ds = _hermitian_pair(rng)
    ops.append(_compact_to_proper_op(
        "compact-to-proper-m2", lambda ds=ds: _m2_compact_tunnel(ds),
        int(rng.integers(1 << 30))))
    return ops


def tunnel_portfolio_primer(rng):
    x, y = _draw_bridge_pair(rng, 2, 2)
    cx, cy = _draw_space(rng, 2, 0.5), _draw_space(rng, 2, 0.5)
    return [
        _bridge_extent_op(x, y),
        _target_set_op(x, y, rng.standard_normal(2) * 0.3, 0),
        _compose_op(*_draw_space(rng, 2, 3.0)),
        _compact_to_proper_op("compact-to-proper",
                              lambda: _classical_compact_tunnel(cx, cy), 0),
        _proper_to_compact_op(*_draw_space(rng, 2, 0.15), 0),
    ]


# ---------------------------------------------------------------------------
# crossed-product: constants -> tunnel -> chain -> certified extent
# ---------------------------------------------------------------------------


def _crossed_op(eps, t, dim, first_fail, seed):
    def run():
        consts = cp.constants(eps, t)
        tp = cp.build_tunnel_p(eps, t, consts=consts)
        chain = cp.verify_chain(eps, t, tunnel=tp, seed=seed)
        cert = cp.extent_certified(eps, t, tunnel=tp, chain=chain, seed=seed)
        return tp.window.dim, chain, cert

    def check(res, _):
        got_dim, chain, cert = res
        if got_dim != dim:
            return f"window dimension {got_dim}, expected {dim}"
        if first_fail is None:
            if not (chain["pass"] and cert["pass"]):
                return f"expected a pass, chain first_fail={chain['first_fail']}"
            if not cert["total_upper"] <= eps:
                return f"total_upper {cert['total_upper']} above eps {eps}"
        elif chain["pass"] or chain["first_fail"] != first_fail:
            return f"expected failure at {first_fail}, got {chain['first_fail']}"
        return None

    return Op(f"cp.eps{eps}_t{t}", run, check)


def crossed_product(rng):
    return [_crossed_op(*cfg, int(rng.integers(1 << 30))) for cfg in CP_CONFIGS]


def crossed_product_primer(rng):
    def run():
        tp = cp.build_tunnel_p(1.0, 1, consts=cp.constants(1.0, 1))
        return oc.opnorm(tp.h1)

    def check(norm, _):
        return None if 0.0 < norm <= 1.0 + 1e-9 else f"||h1|| = {norm}"

    return [Op("cp.primer", run, check)]


WORKLOADS = {
    "bl-commutative": (bl_commutative, bl_commutative_primer),
    "tunnel-portfolio": (tunnel_portfolio, tunnel_portfolio_primer),
    "crossed-product": (crossed_product, crossed_product_primer),
}


PRIMER_STREAM = 2**32 - 1     # pass indices never reach it


def passes(name, seed):
    """Pass ``i`` of a workload: ``passes(name, seed)(i)``."""
    make = WORKLOADS[name][0]
    return lambda i: make(np.random.default_rng([seed, i]))


def primer(name, seed):
    """Warm-up operations: one small call of each kind, run during set-up."""
    return WORKLOADS[name][1](np.random.default_rng([seed, PRIMER_STREAM]))

