"""The independent oracles the tests compare the package against, each typed
once.

``SHARES`` maps each function here to the package names it calls, directly
or through another function here, as dotted names under ``doflab``: what a
test built on that oracle cannot tell apart from the code it checks. The
error types an oracle raises or catches, and the fields it reads of the
values it is given, are not counted.

Nothing at module level imports numpy or the Monte Carlo layer: the
geometry and planning test modules import this one, and run without
numpy. The oracles that need numpy import it in their bodies.
"""

import math
from fractions import Fraction as F

from doflab import GramOverflow, SingularCovariance, UnboundedRegion, order2_payload

_PHASE = ("simulate._Phase.symbols", "simulate._Phase.rows", "simulate._Phase.lift")

SHARES = {
    "intercepts": (),
    "reference_vertices": (),
    "admits": (),
    "reference_contains": (),
    "reference_is_subset": (),
    "reference_area": (),
    "oracle_line": (),
    "oracle_plan": (),
    "reference_layout": (),
    "block_diagonal": (),
    "dense_form": (),
    "svd_rate": (),
    "fraction_rank": (),
    "fraction_ranks": (),
    "residual_scan": ("simulate.quantize_csit",),
    "reference_layouts": (),
    "reference_stack": (),
    "_ref_overheard": (),
    "_ref_deal": (),
    "_ref_phase3": (),
    "_ref_receiver_rate": (),
    "reference_pair_rates": ("scheme.order2_payload", "simulate.quantize_csit"),
    "reference_rates": ("simulate.gen_channels", "simulate.quantize_csit", "scheme.order2_payload"),
    "reference_failure": ("simulate.gen_channels", "simulate.quantize_csit", "scheme.order2_payload"),
    "reference_rank_passes": ("simulate.gen_channels", "scheme.order2_payload",
                              "kernels.numerical_rank"),
    "svd_ranks": (*_PHASE, "kernels.numerical_rank_stacked"),
    "float_words": ("simulate.ChannelRealization",),
    "whole_system_ranks": (*_PHASE, "kernels.slot_rank_stacked"),
    "dealt_blocks": (),
}


# -- exact geometry ---------------------------------------------------------


def intercepts(region):
    """(d1_max, d2_max) pairs of each constraint, for structural asserts."""
    return {(F(hp.r, hp.p) if hp.p else None, F(hp.r, hp.q) if hp.q else None)
            for hp in region.constraints}


def reference_vertices(region):
    """Vertices by the pairwise Fraction enumeration ``DofRegion.vertices``
    used before it moved to integer-scaled constraints: solve each pair of
    lines (constraints and axes) in Fractions, keep the solutions in the
    quadrant that every constraint admits, order them by angle."""
    constraints = region.constraints
    if not any(hp.p > 0 for hp in constraints) or not any(hp.q > 0 for hp in constraints):
        raise UnboundedRegion("region is unbounded in the quadrant")
    lines = [(hp.p, hp.q, hp.r) for hp in constraints]
    lines.append((F(1), F(0), F(0)))  # d1 = 0
    lines.append((F(0), F(1), F(0)))  # d2 = 0
    found = set()
    for i in range(len(lines)):
        p1, q1, r1 = lines[i]
        for j in range(i + 1, len(lines)):
            p2, q2, r2 = lines[j]
            det = p1 * q2 - p2 * q1
            if det == 0:
                continue
            x = (r1 * q2 - r2 * q1) / det
            y = (p1 * r2 - p2 * r1) / det
            if x < 0 or y < 0:
                continue
            if all(admits(hp, x, y) for hp in constraints):
                found.add((x, y))

    def angle_key(v):
        x, y = v
        if x == 0 and y == 0:
            return (F(-1), F(0))
        return (y / (x + y), x + y)

    return sorted(found, key=angle_key)


def admits(hp, d1, d2):
    """``p*d1 + q*d2 <= r`` in Fractions, without the plane's integer test."""
    return hp.p * d1 + hp.q * d2 <= hp.r


def reference_contains(region, point):
    d1, d2 = point
    return d1 >= 0 and d2 >= 0 and all(admits(hp, d1, d2) for hp in region.constraints)


def reference_is_subset(inner_vertices, outer):
    """Whether ``outer`` holds every vertex of the inner region, given as
    ``reference_vertices``' list, or as ``UnboundedRegion`` where that
    raised."""
    if inner_vertices is UnboundedRegion:
        return UnboundedRegion
    return all(reference_contains(outer, v) for v in inner_vertices)


def reference_area(vertices):
    """The shoelace sum over Fraction vertices in counterclockwise order."""
    pairs = zip(vertices, vertices[1:] + vertices[:1])
    return sum((ax * by - bx * ay for (ax, ay), (bx, by) in pairs), F(0)) / 2


def oracle_line(d1_max, d2_max):
    """(p, q, r, scaled) of d1/d1_max + d2/d2_max <= 1."""
    p, q, r = 1 / F(d1_max), 1 / F(d2_max), F(1)
    scale = math.lcm(p.denominator, q.denominator, r.denominator)
    return p, q, r, tuple(int(c * scale) for c in (p, q, r))


def oracle_plan(values):
    """(integers, scale): Fraction values times the lcm of their reduced
    denominators, the plan's integer_scale."""
    scale = math.lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values], scale


# -- slot layout ------------------------------------------------------------


def reference_layout(count, slots, n, tau3):
    """(loads, rows) of a symbol phase of ``count`` streams over ``slots``
    slots for a receiver of ``n`` antennas, built without the package: each
    slot takes the ceiling of the streams left over the slots left, so
    larger loads come first; slot t owes its first ``load - n`` rows of the
    other receiver, in slot order, and these are dealt one stream at a time
    across the ``tau3`` phase-three slots, as ``(slot3, stream, slot, row,
    load)``."""
    loads, left = [], count
    for t in range(slots):
        loads.append(-(-left // (slots - t)))
        left -= loads[-1]
    owed = [(t, r, load) for t, load in enumerate(loads) for r in range(max(0, load - n))]
    rows, stream = [], 0
    while len(rows) < len(owed):
        for slot3 in range(tau3):
            if len(rows) < len(owed):
                rows.append((slot3, stream, *owed[len(rows)]))
        stream += 1
    return loads, rows


def reference_layouts(cfg, plan):
    """``reference_layout``'s (loads, rows) of each symbol phase of the plan."""
    return (reference_layout(plan.s1_count, plan.tau1, cfg.n1, plan.tau3),
            reference_layout(plan.s2_count, plan.tau2, cfg.n2, plan.tau3))


def dealt_blocks(cfg, plan):
    """Per symbol phase, its blocks as a set of (phase-three slots, slots)
    pairs of frozensets, and the set of slots no row is dealt from, built
    from ``reference_layout``'s rows. A union-find joins each row's
    phase-three slot and slot."""
    phases = []
    for loads, rows in reference_layouts(cfg, plan):
        parent = {}

        def find(node):
            parent.setdefault(node, node)
            while parent[node] != node:
                node = parent[node]
            return node

        for slot3, _, t, *_ in rows:
            parent[find(("slot3", slot3))] = find(("slot", t))
        components = {}
        for node in list(parent):
            kind, index = node
            components.setdefault(find(node), (set(), set()))[kind == "slot"].add(index)
        blocks = {(frozenset(slots3), frozenset(slots)) for slots3, slots in components.values()}
        phases.append((blocks, set(range(len(loads))) - {t for _, _, t, *_ in rows}))
    return phases


# -- dense systems, rates and ranks ------------------------------------------


def block_diagonal(own):
    """Slot blocks (..., slots, rows, width) as one block-diagonal matrix,
    in their dtype."""
    import numpy as np

    *batch, slots, rows, width = own.shape
    out = np.zeros((*batch, slots * rows, slots * width), dtype=own.dtype)
    for t in range(slots):
        out[..., t * rows : (t + 1) * rows, t * width : (t + 1) * width] = own[..., t, :, :]
    return out


def dense_form(own, g3, s3):
    """The slot rate kernel's system as one G and Sigma = diag(I, S)."""
    import numpy as np

    stacked = block_diagonal(own)
    batch, n_own = stacked.shape[:2]
    n3 = g3.shape[1]
    sigma = np.zeros((batch, n_own + n3, n_own + n3), dtype=complex)
    sigma[:, :n_own, :n_own] = np.eye(n_own)
    sigma[:, n_own:, n_own:] = s3
    return np.concatenate([stacked, g3], axis=1), sigma


def svd_rate(g, sigma):
    """log2 det(I + G^H Sigma^-1 G) of one system (m, k), as a float, or of
    each of a stack (..., m, k), from the singular values of the whitened
    system L^-1 G (Sigma = L L^H), without the simulator's kernels. Raises
    the kernels' errors where they must: ``SingularCovariance`` unless every
    Sigma has a Cholesky factor with positive pivots, ``GramOverflow`` when
    a whitened system is not finite."""
    import numpy as np

    if g.shape[-1] == 0:
        rate = np.zeros(g.shape[:-2])
    else:
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            chol = None
        if chol is None or not np.all(np.diagonal(chol, axis1=-2, axis2=-1).real > 0):
            raise SingularCovariance("noise covariance is not positive definite")
        white = np.linalg.solve(chol, g)
        if not np.all(np.isfinite(white)):
            raise GramOverflow("rate system has a non-finite entry")
        s = np.linalg.svd(white, compute_uv=False)
        rate = np.sum(np.log1p(s**2), axis=-1) / np.log(2.0)
    return float(rate) if g.ndim == 2 else rate


def fraction_rank(matrix):
    """Rank of an integer matrix (rows of ints) by Gaussian elimination over
    the rationals, in ``Fraction``."""
    rows = [[F(int(x)) for x in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            ratio = rows[i][c] / rows[rank][c]
            rows[i] = [x - ratio * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_ranks(own, coupled):
    """``fraction_rank`` of each dense integer system [blockdiag(A_t); P]."""
    import numpy as np

    dense = block_diagonal(own)
    if coupled is not None:
        dense = np.concatenate([dense, coupled], axis=-2)
    return [fraction_rank(system.tolist()) for system in dense]


def residual_scan(alpha, snr_grid_db, seed, entries=100_000):
    """(mean powers, slope): the mean of ``|h - quantize_csit(h, alpha,
    rho)|**2`` over ``entries`` unit-power draws per SNR point, and the
    least-squares slope of its log10 against log10(rho), near ``-alpha``."""
    import numpy as np

    from doflab import quantize_csit

    rng = np.random.default_rng(seed)
    h = (rng.standard_normal(entries) + 1j * rng.standard_normal(entries)) / np.sqrt(2)
    log_rho = np.array(snr_grid_db, dtype=float) / 10.0
    means = np.array([np.mean(np.abs(h - quantize_csit(h, alpha, 10.0**x)) ** 2) for x in log_rho])
    return means, float(np.polyfit(log_rho, np.log10(means), 1)[0])


# -- the unbatched campaigns, one trial and one SNR point at a time ----------


def reference_stack(slices, loads, scales=None):
    """A phase's slot blocks ``slices`` (slots, rows, M), each cut to its
    load's columns and scaled by ``scales``, on the diagonal of one dense
    matrix."""
    import numpy as np

    rows_per = slices.shape[1] if slices.ndim == 3 else 0
    out = np.zeros((rows_per * len(loads), sum(loads)), dtype=np.complex128)
    off = 0
    for t, load in enumerate(loads):
        if load == 0:
            continue
        block = slices[t][:, :load]
        if scales is not None:
            block = scales[t] * block
        out[t * rows_per : (t + 1) * rows_per, off : off + load] = block
        off += load
    return out


def _ref_overheard(slices, loads, rows):
    """The other receiver's rows that phase three forwards, the layout's
    ``rows``: each one over the columns of its slot, with its slot's load."""
    import numpy as np

    starts = [sum(loads[:t]) for t in range(len(loads))]
    out = np.zeros((len(rows), sum(loads)), dtype=np.complex128)
    for j, (_, _, t, r, load) in enumerate(rows):
        out[j, starts[t] : starts[t] + load] = slices[t][r, :load]
    return out, [load for *_, load in rows]


def _ref_deal(rows, slot3):
    """Per phase of the layout ``rows`` (one list per phase), the (stream,
    row index) of each of its rows dealt to phase-three slot ``slot3``, and
    the number of streams there."""
    cells = [[(stream, j) for j, (at, stream, *_) in enumerate(each) if at == slot3] for each in rows]
    return cells, 1 + max((stream for each in cells for stream, _ in each), default=-1)


def _ref_phase3(plan, rows, real, est, res, pows, power, sigma2):
    """Per receiver, the gain rows, mismatch rows and reconstruction noise
    blocks of each phase-three slot: phase i's payload rows ``rows[i]``
    carry the estimates ``est[i]`` of its overheard rows, of powers
    ``pows[i]`` and residuals ``res[i]``."""
    import numpy as np

    base3 = plan.tau1 + plan.tau2
    symbols = (plan.s1_count, plan.s2_count)
    out = ([], [], []), ([], [], [])
    for t in range(plan.tau3):
        cells, q = _ref_deal(rows, t)
        if q == 0:
            continue
        pw = [0.0] * q
        for i, each in enumerate(cells):
            for stream, j in each:
                pw[stream] += float(np.sum(np.abs(est[i][j]) ** 2))
        gains = np.array([math.sqrt(power / q / total) if total > 0 else 0.0 for total in pw])
        own = [np.zeros((q, symbols[i]), dtype=np.complex128) for i in (0, 1)]
        cross = [np.zeros((q, symbols[1 - i]), dtype=np.complex128) for i in (0, 1)]
        evar = [np.zeros(q), np.zeros(q)]
        for i, each in enumerate(cells):
            for stream, j in each:
                own[i][stream] = est[i][j]
                cross[1 - i][stream] = res[i][j]
                evar[1 - i][stream] = sigma2 / pows[i][j]
        for i, h in enumerate((real.h1, real.h2)):
            w = h[base3 + t][:, :q] * gains[None, :]
            out[i][0].append(w @ own[i])
            out[i][1].append(w @ cross[i])
            out[i][2].append((w * evar[i][None, :]) @ w.conj().T)
    return out


def _ref_receiver_rate(own_phase, gains, mismatches, extras, sigma2, total_slots):
    import numpy as np

    n_own = own_phase.shape[0]
    if gains:
        g3 = np.vstack(gains)
        mism = np.vstack(mismatches)
        n3 = g3.shape[0]
        sig3 = sigma2 * np.eye(n3, dtype=np.complex128) + mism @ mism.conj().T
        off = 0
        for blk in extras:
            b = blk.shape[0]
            sig3[off : off + b, off : off + b] += blk
            off += b
        g = np.vstack([own_phase, g3])
        sigma = np.zeros((n_own + n3, n_own + n3), dtype=np.complex128)
        sigma[:n_own, :n_own] = sigma2 * np.eye(n_own)
        sigma[n_own:, n_own:] = sig3
    else:
        g = own_phase
        sigma = sigma2 * np.eye(n_own, dtype=np.complex128)
    return svd_rate(g, sigma) / total_slots


def reference_pair_rates(cfg, plan, real, rho):
    """Rates (rx1, rx2) of the unbatched loop at one trial's channels and SNR."""
    from doflab import quantize_csit

    payload = order2_payload(plan, cfg)
    (loads1, rows1), (loads2, rows2) = reference_layouts(cfg, plan)
    sigma2 = 1.0
    total = plan.total_slots
    p2 = slice(plan.tau1, plan.tau1 + plan.tau2)
    power = rho * sigma2
    h1_hat = quantize_csit(real.h1, cfg.alpha1, rho)
    h2_hat = quantize_csit(real.h2, cfg.alpha2, rho)
    scales1 = [math.sqrt(power / u) if u else 0.0 for u in loads1]
    scales2 = [math.sqrt(power / v) if v else 0.0 for v in loads2]
    own_rx1 = reference_stack(real.h1[: plan.tau1], loads1, scales1)
    own_rx2 = reference_stack(real.h2[p2], loads2, scales2)
    est1, loads_of1 = _ref_overheard(h2_hat[: plan.tau1], loads1, rows1)
    res1, _ = _ref_overheard(real.h2[: plan.tau1] - h2_hat[: plan.tau1], loads1, rows1)
    est2, loads_of2 = _ref_overheard(h1_hat[p2], loads2, rows2)
    res2, _ = _ref_overheard(real.h1[p2] - h1_hat[p2], loads2, rows2)
    assert (len(est1), len(est2)) == (payload.k1_needed, payload.k2_needed)
    pows = ([power / load for load in loads_of1], [power / load for load in loads_of2])
    blocks = _ref_phase3(plan, (rows1, rows2), real, (est1, est2), (res1, res2), pows,
                         power, sigma2)
    return (
        _ref_receiver_rate(own_rx1, *blocks[0], sigma2, total),
        _ref_receiver_rate(own_rx2, *blocks[1], sigma2, total),
    )


def reference_rates(cfg, plan, params):
    """Per-SNR rates (len(grid), 2) of the unbatched loop."""
    import numpy as np

    from doflab import gen_channels

    rates = np.zeros((len(params.snr_grid_db), 2))
    for trial in range(params.trials):
        real = gen_channels(cfg, plan.total_slots, [params.seed, trial])
        for si, snr_db in enumerate(params.snr_grid_db):
            rates[si] += reference_pair_rates(cfg, plan, real, 10.0 ** (snr_db / 10.0))
    return rates / params.trials


def reference_failure(cfg, plan, params):
    """(error type, trial, SNR in dB) of the first pair the unbatched loop
    cannot evaluate, or None."""
    from doflab import gen_channels

    for trial in range(params.trials):
        real = gen_channels(cfg, plan.total_slots, [params.seed, trial])
        for snr_db in params.snr_grid_db:
            try:
                reference_pair_rates(cfg, plan, real, 10.0 ** (snr_db / 10.0))
            except (SingularCovariance, GramOverflow) as exc:
                return type(exc), trial, snr_db
    return None


def reference_rank_passes(cfg, plan, params):
    """Per-receiver rank passes of the unbatched loop."""
    import numpy as np

    from doflab import gen_channels, kernels

    payload = order2_payload(plan, cfg)
    (loads1, rows1), (loads2, rows2) = reference_layouts(cfg, plan)
    assert (len(rows1), len(rows2)) == (payload.k1_needed, payload.k2_needed)
    p2 = slice(plan.tau1, plan.tau1 + plan.tau2)
    base3 = plan.tau1 + plan.tau2
    s1, s2 = plan.s1_count, plan.s2_count
    passes = [0, 0]
    for trial in range(params.trials):
        real = gen_channels(cfg, plan.total_slots, [params.seed, trial])
        heard = (_ref_overheard(real.h2[: plan.tau1], loads1, rows1)[0],
                 _ref_overheard(real.h1[p2], loads2, rows2)[0])
        sys1 = [reference_stack(real.h1[: plan.tau1], loads1)]
        sys2 = [reference_stack(real.h2[p2], loads2)]
        for t in range(plan.tau3):
            cells, q = _ref_deal((rows1, rows2), t)
            if q == 0:
                continue
            dealt = [np.zeros((q, s), dtype=np.complex128) for s in (s1, s2)]
            for i, each in enumerate(cells):
                for stream, j in each:
                    dealt[i][stream] = heard[i][j]
            sys1.append(real.h1[base3 + t][:, :q] @ dealt[0])
            sys2.append(real.h2[base3 + t][:, :q] @ dealt[1])
        rank1 = kernels.numerical_rank(np.vstack(sys1)) if s1 else 0
        rank2 = kernels.numerical_rank(np.vstack(sys2)) if s2 else 0
        passes[0] += rank1 == s1
        passes[1] += rank2 == s2
    return passes[0], passes[1]


# -- the campaigns' own layout, in floats and undecomposed -------------------


def svd_ranks(geom, real):
    """Per receiver, the SVD rank of each float system of the campaigns'
    layout: the own slot blocks over the lifted phase-three rows."""
    import numpy as np

    from doflab import kernels

    h = (real.h1, real.h2)
    ranks = []
    for i, phase in enumerate(geom.phases):
        dense = block_diagonal(phase.symbols(h[i]))
        if geom.slots3:
            w = h[i][:, geom.phase3, :, : geom.streams3]
            dense = np.concatenate([dense, phase.lift(w, phase.rows(phase.symbols(h[1 - i])))], axis=1)
        ranks.append(kernels.numerical_rank_stacked(dense))
    return ranks


def float_words(real):
    """The words of a float draw, for ranks of the same systems in floats
    and over GF(p): per complex entry, the xor of its real and imaginary
    parts' float64 bit patterns."""
    import numpy as np

    from doflab import ChannelRealization

    return ChannelRealization(*(h.real.view(np.uint64) ^ h.imag.view(np.uint64)
                                for h in (real.h1, real.h2)))


def whole_system_ranks(geom, words):
    """Per receiver, each trial's rank of its undecomposed system [A; P]:
    one ``kernels.slot_rank_stacked`` per receiver under the first prime,
    and where a receiver falls short, the larger of that and the second
    prime's, as ``_ranks`` recounts."""
    import numpy as np

    from doflab import kernels

    symbols = (geom.plan.s1_count, geom.plan.s2_count)
    ranks = None
    for p in kernels.PRIMES:
        h = [(each % np.uint64(p)).view(np.int64) for each in (words.h1, words.h2)]
        under = []
        for i, phase in enumerate(geom.phases):
            rows = None
            if geom.slots3:
                w = h[i][:, geom.phase3, :, : geom.streams3]
                rows = phase.lift(w, phase.rows(phase.symbols(h[1 - i]))) % p
            under.append(kernels.slot_rank_stacked(phase.symbols(h[i]), rows, p))
        ranks = under if ranks is None else [np.maximum(a, b) for a, b in zip(ranks, under)]
        if all((rank == full).all() for rank, full in zip(ranks, symbols)):
            break
    return ranks
