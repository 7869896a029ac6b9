"""The four desk workloads of the riskdesk benchmark.

Each workload draws raw numeric arrays from its seed (``Inputs``), builds
program objects only through public riskdesk constructors, and exposes

    setup(tr)      build the long-lived objects (timed as set-up)
    job(tr, i)     one closed-loop job; returns what the checks need
    check(i, out)  untimed output checks; returns a list of failures

``tr`` is a ``spans.Tracer``: every call into a riskdesk module goes
through it, so a traced run records a span per call. Tolerances are the
ones pinned in ``riskdesk.acceptance`` for the same identities.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

import riskdesk as rd
from riskdesk import cli, oracles
from spans import Tracer

# tolerances pinned by the acceptance battery (riskdesk/acceptance.py)
RECURSION_TOL = 1e-9        # time-consistency: recursion identity
SUPERMARTINGALE_TOL = 1e-9  # supermartingale criterion
ROBUST_DP_TOL = 1e-12       # robust recursion vs selection enumeration
CAPACITY_TOL = 1e-9         # capacity-duality criterion
PENALTY_TOL = 1e-6          # LP conjugate vs box oracle; penalty cocycle
SQUARE_ASK_TOL = 2e-3       # band pricing: upper square value
BAND_TOL = 1e-3             # band pricing: call value, bid, lattice vs PDE
DOMINATION_TOL = 1e-9       # band pricing: in-band laws between bid and ask
ALIGNED_TOL = 1e-6          # path metric: aligned single-jump value 0.1
# not in the battery: dense sampling can only under-estimate a witness's cost
DENSE_SLACK = 1e-9


class Inputs:
    """Seeded source of raw arrays that hashes everything it hands out, so
    two runs can be shown to have used identical inputs."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._sha = hashlib.sha256()

    def take(self, values):
        a = np.array(values, dtype=float)
        self._sha.update(f"{a.shape}".encode())
        self._sha.update(a.tobytes())
        return a if a.ndim else float(a)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        return self.take(self.rng.uniform(lo, hi, size))

    def normal(self, size):
        return self.take(self.rng.normal(size=size))

    def integers(self, lo, hi):
        """Integer in [lo, hi)."""
        return int(self.take(self.rng.integers(lo, hi)))

    def kernels(self, n_children):
        """One strictly positive kernel per entry of ``n_children``."""
        return [self.take((self.rng.dirichlet(np.ones(b)) + 0.05) / (1.0 + 0.05 * b))
                for b in n_children]

    def digest(self) -> str:
        return self._sha.hexdigest()


def _levels(flat, sizes):
    """Split a flat per-node list into per-time-index tuples."""
    out, at = [], 0
    for n in sizes:
        out.append(tuple(flat[at:at + n]))
        at += n
    return tuple(out)


def _gap(a, b):
    """Max |a - b| where infinities must coincide; inf when they do not."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.any(np.isinf(a) != np.isinf(b)):
        return np.inf
    fin = np.isfinite(a)
    return float(np.max(np.abs(a[fin] - b[fin]), initial=0.0))


class TreeDeep:
    """One large binary and one trinomial tree built in set-up; each job
    runs a batch of terminal positions through the per-node recursions."""

    name = "tree-deep"
    TREES = ((2, 10), (3, 6))        # (children per node, depth)
    # one cycle of batches (positions on the binary tree, on the trinomial
    # tree), so job costs spread over a 6-fold range
    BATCHES = tuple((k, m) for k in range(3) for m in range(3) if k + m)
    PREFIX_DEPTH = {2: 3, 3: 2}      # shallow prefix for the enumeration oracle
    N_MEASURES = 3
    N_POSITIONS = 64

    def __init__(self, inp: Inputs):
        self.raw = []
        for b, depth in self.TREES:
            sizes = [b ** k for k in range(depth)]
            n_inner = sum(sizes)
            self.raw.append({
                "b": b, "depth": depth, "sizes": sizes,
                "step": inp.uniform(0.5, 1.5) * np.linspace(1.0, -1.0, b),
                "kernels": [inp.kernels([b] * n_inner) for _ in range(self.N_MEASURES)],
                "penalties": inp.uniform(0.0, 0.5, n_inner),
                "positions": inp.normal((self.N_POSITIONS, b ** depth)),
            })
        self._oracle = {}

    def setup(self, tr):
        self.trees = []
        for raw in self.raw:
            b, depth, sizes = raw["b"], raw["depth"], raw["sizes"]
            n_inner = sum(sizes)
            times = np.arange(depth + 1) / depth
            lat = tr("lattice.build", rd.uniform_tree, times, raw["step"],
                     work={"nodes": n_inner + b ** depth})
            measures = [tr("measures.measure_build", rd.Measure, lat, _levels(k, sizes),
                           work={"kernels": n_inner}) for k in raw["kernels"]]
            # choice 0 is measure 0 at zero penalty, so measure 0 is the
            # zero-penalty law the supermartingale check needs
            menus = [((w0, 0.0), (w1, a))
                     for w0, w1, a in zip(raw["kernels"][0], raw["kernels"][1],
                                          raw["penalties"])]
            structure = tr("dynamics.structure_build", rd.OneStepStructure, lat,
                           _levels(menus, sizes))
            dyn = tr("dynamics.build", rd.build_dynamic, structure)
            hull = tr("stability.hull", rd.rectangular_hull, measures)
            family = tr("measures.family", rd.MeasureFamily, tuple(measures), p=2.0)
            half = depth // 2
            self.trees.append({
                "raw": raw, "lat": lat, "measures": measures, "dyn": dyn,
                "hull": hull, "family": family, "T": depth, "half": half,
                "n_inner": n_inner, "n_tail": sum(sizes[half:]),
            })

    def job(self, tr, i):
        out = []
        for k, count in enumerate(self.BATCHES[i % len(self.BATCHES)]):
            tree = self.trees[k]
            lat, T, half, n_inner = tree["lat"], tree["T"], tree["half"], tree["n_inner"]
            for j in range(count):
                p = (3 * i + j) % self.N_POSITIONS
                X = tr("lattice.rv", rd.RandomVariable, lat, T, tree["raw"]["positions"][p])
                ce = tr("measures.cond_exp", rd.conditional_expectation, X,
                        tree["measures"][1], 0, work={"nodes": n_inner})
                rho_0 = tr("dynamics.rho", tree["dyn"].rho, 0, T, X,
                           work={"nodes": n_inner})
                rho_half = tr("dynamics.rho", tree["dyn"].rho, half, T, X,
                              work={"nodes": tree["n_tail"]})
                robust = tr("stability.robust_eval", rd.robust_evaluate, tree["hull"],
                            X, 0, work={"nodes": n_inner})
                cap = tr("measures.capacity", rd.capacity, X, tree["family"])
                gap = tr("dynamics.supermartingale", rd.supermartingale_check,
                         tree["dyn"], X, tree["measures"][0], [0, half, T])
                out.append((k, p, float(ce.values[0]), float(rho_0.values[0]), rho_half,
                            float(robust.values[0]), cap, gap))
        return out

    def _prefix_oracle(self, k):
        """Shallow prefix of tree k: its rectangular hull and the leaf laws of
        every selection, built once for the enumeration check."""
        if k not in self._oracle:
            raw = self.raw[k]
            d = self.PREFIX_DEPTH[raw["b"]]
            sizes = raw["sizes"][:d]
            lat = rd.uniform_tree(np.arange(d + 1) / d, raw["step"])
            hull = rd.rectangular_hull(
                [rd.Measure(lat, _levels(kern[:sum(sizes)], sizes))
                 for kern in raw["kernels"]])
            laws = np.stack([Q.node_probabilities(d)
                             for Q in rd.enumerate_selections(hull)])
            self._oracle[k] = (lat, hull, laws, d)
        return self._oracle[k]

    def check(self, i, out):
        fails = []
        for k, p, ce, rho_0, rho_half, robust, cap, gap in out:
            tree = self.trees[k]
            staged = tree["dyn"].rho(0, tree["half"], -rho_half).values[0]
            if abs(staged - rho_0) > RECURSION_TOL:
                fails.append(f"tree {k}: recursion gap {abs(staged - rho_0):.3g}")
            if gap > SUPERMARTINGALE_TOL:
                fails.append(f"tree {k}: supermartingale gap {gap:.3g}")
            if abs(ce) > cap + CAPACITY_TOL:
                fails.append(f"tree {k}: |E_Q X| = {abs(ce):.6g} above capacity {cap:.6g}")
            if robust < -ce - ROBUST_DP_TOL:
                fails.append(f"tree {k}: robust value {robust:.6g} below member value {-ce:.6g}")
            lat, hull, laws, d = self._prefix_oracle(k)
            x = tree["raw"]["positions"][p][:laws.shape[1]]
            direct = rd.robust_evaluate(hull, rd.RandomVariable(lat, d, x), 0).values[0]
            enum = float(np.max(laws @ -x))
            if abs(direct - enum) > ROBUST_DP_TOL:
                fails.append(f"tree {k}: robust vs enumeration {abs(direct - enum):.3g}")
        return fails


class PenaltyLP:
    """Many small dual representations, each built from raw arrays inside
    its job, priced by per-node penalty LPs and checked for the cocycle."""

    name = "penalty-lp"
    # one cycle of shapes (periods, children per node, s, components); the
    # seed draws every value, the cycle and the pool index fix how much work
    # each job is
    SHAPES = tuple((T, b, s, n) for T in (2, 3) for b in (2, 3)
                   for s in range(T) for n in (2, 4))
    N_INPUTS = 4 * len(SHAPES)
    SPLIT_NODES = 4          # nodes with a two-choice menu: 2**4 selections
    BOX_SHARE = 0.125        # share of jobs checked against the box oracle

    def __init__(self, inp: Inputs):
        n = len(self.SHAPES)
        self.pool = [self._draw(inp, i // n, *self.SHAPES[i % n])
                     for i in range(self.N_INPUTS)]

    def _draw(self, inp, rep, T, b, s, n_comp):
        sizes = [b ** k for k in range(T + 1)]
        children = [b] * sum(sizes[:-1])
        pens = [np.zeros(sizes[s])] + [inp.uniform(0.0, 1.0, sizes[s])
                                        for _ in range(n_comp - 1)]
        split = set(np.linspace(0, len(children) - 1,
                                min(self.SPLIT_NODES, len(children))).round().astype(int))
        menus = [[(w, float(inp.uniform(0.0, 0.5)))
                  for w in inp.kernels([b] * (2 if k in split else 1))]
                 for k in range(len(children))]
        return {
            "times": inp.take(np.arange(T + 1) / T),
            "increments": [[inp.normal((b, 1)) for _ in range(n)] for n in sizes[:-1]],
            "sizes": sizes, "children": children, "s": s,
            "comp_kernels": [inp.kernels(children) for _ in range(n_comp)],
            "penalties": pens,
            "mix": inp.take(inp.rng.dirichlet(np.ones(n_comp))),
            "query": inp.kernels(children),
            "positions": inp.normal((3, sizes[-1])),
            "menus": menus,
            "s_mid": 1 + rep % (T - 1),
            "box": bool(inp.uniform() < self.BOX_SHARE),
        }

    def setup(self, tr):
        pass

    def _build(self, tr, raw):
        """Lattice, dual representation and query measures from raw arrays."""
        sizes, s = raw["sizes"], raw["s"]
        inner = sizes[:-1]
        lat = tr("lattice.build", rd.build_lattice, raw["times"], raw["increments"],
                 work={"nodes": sum(sizes)})

        def measure(kernels):
            return tr("measures.measure_build", rd.Measure, lat, _levels(kernels, inner),
                      work={"kernels": sum(inner)})

        members = [measure(k) for k in raw["comp_kernels"]]
        comps = tuple((Q, tr("lattice.rv", rd.RandomVariable, lat, s, a,
                             allow_infinite=True))
                      for Q, a in zip(members, raw["penalties"]))
        rep = tr("risk.dualrep", rd.DualRep, s, len(inner), comps)
        mix = tr("measures.mix", rd.mix_measures, members, raw["mix"])
        query = measure(raw["query"])
        unreachable = measure([np.eye(b)[0] for b in raw["children"]])
        return lat, rep, (members[0], mix, query, unreachable)

    def job(self, tr, i):
        raw = self.pool[i % self.N_INPUTS]
        sizes, s = raw["sizes"], raw["s"]
        T = len(sizes) - 1
        lat, rep, queries = self._build(tr, raw)
        penalties = []
        for Q in queries:
            alpha = tr("risk.min_penalty", rd.minimal_penalty, rep, Q,
                       work={"lps": sizes[s]})
            tr.note(lp_inf=int(np.sum(np.isinf(alpha.values))))
            penalties.append(alpha.values)
        rhos = [tr("risk.rm_evaluate", rd.rm_evaluate, rep,
                   tr("lattice.rv", rd.RandomVariable, lat, T, x)).values
                for x in raw["positions"]]
        structure = tr("dynamics.structure_build", rd.OneStepStructure, lat,
                       _levels(raw["menus"], sizes[:-1]))
        dyn = tr("dynamics.build", rd.build_dynamic, structure)
        n_choices = [len(m) for m in raw["menus"]]
        reps = []
        for r, t in ((0, T), (0, raw["s_mid"]), (raw["s_mid"], T)):
            count = int(np.prod(n_choices[sum(sizes[:r]):sum(sizes[:t])]))
            reps.append(tr("dynamics.expand_dual", rd.expand_dual, dyn, r, t,
                           work={"components": count}))
        residual, bad = tr("dynamics.cocycle", rd.check_cocycle, *reps,
                           reps[0].components[0][0])
        return {"penalties": penalties, "rhos": rhos, "cocycle": residual.values[~bad]}

    def check(self, i, out):
        raw = self.pool[i % self.N_INPUTS]
        zero, mixed, queried, unreachable = out["penalties"]
        fails = []
        if not np.all(zero == 0.0):
            fails.append(f"zero-penalty member priced at {zero}")
        if not np.all(np.isinf(unreachable)):
            fails.append(f"unreachable query priced at {unreachable}")
        if not np.all(np.isfinite(mixed)):
            fails.append(f"mixture of members priced at {mixed}")
        if out["cocycle"].size and np.max(np.abs(out["cocycle"])) > PENALTY_TOL:
            fails.append(f"cocycle residual {np.max(np.abs(out['cocycle'])):.3g}")
        # the same objects again, untimed, so outputs need not hold them
        lat, rep, (_, mix, query, _) = self._build(Tracer(False), raw)
        # Fenchel inequality: rho(X) >= E_mix(-X | s) - alpha(mix) node-wise
        for x, rho in zip(raw["positions"], out["rhos"]):
            X = rd.RandomVariable(lat, rep.t, x)
            bound = rd.conditional_expectation(-X, mix, rep.s).values - mixed
            if np.any(rho < bound - PENALTY_TOL):
                fails.append("risk below the conjugate bound of the mixture")
        if raw["box"]:
            for name, Q, lp in (("mixture", mix, mixed), ("random", query, queried)):
                gap = _gap(lp, oracles.conjugate_box_oracle(rep, Q))
                if gap > PENALTY_TOL:
                    fails.append(f"{name} query: LP vs box oracle {gap:.3g}")
        return fails


class BandGrid:
    """Band pricing on grids: bid/ask through both recursions, conditional
    values of a two-date cylinder payoff, in-band laws and CLI runs."""

    name = "band-grid"
    # one cycle of job kinds: field, price, cond, cli. Within each kind the
    # grid size, cylinder date or law count steps through an even range with
    # the job index, so job costs spread the same way for every seed
    CYCLE = "fpfpcfppfpcfppfcppcl"
    KINDS = {"f": "field", "p": "price", "c": "cond", "l": "cli"}
    DT, H = 5e-4, 0.01                # fine grid of the price jobs
    COARSE = (1e-3, 0.01, 100, 1.0)   # dt, h, radius, horizon
    PAYOFFS = ("square", "call", "abs")
    N_FIELDS = 8
    N_JOBS = 512

    def __init__(self, inp: Inputs):
        self.sigma = (inp.uniform(0.08, 0.12), inp.uniform(0.18, 0.25))
        dt, h, radius, horizon = self.COARSE
        n_steps = int(round(horizon / dt))
        lo2, hi2 = self.sigma[0] ** 2, self.sigma[1] ** 2
        self.fields = [(lo2 + inp.uniform(size=(n_steps, 2 * radius + 1)) * (hi2 - lo2)) * dt
                       for _ in range(self.N_FIELDS)]
        self.jobs = [{
            "band": (inp.uniform(0.08, 0.12), inp.uniform(0.18, 0.25)),
            "radius": 100 + (37 * i) % 101,                         # price
            "horizon": (1000 + (613 * i) % 1001) * self.DT,         # price
            "t1": (200 + (97 * i) % 601) * dt,                      # cond
            "laws": 2 + i % 5,                                      # field
        } for i in range(self.N_JOBS)]
        self.out_dir = Path(".perfbench_out") / "cli"
        self._field_quotes = {}

    @staticmethod
    def payoff(kind):
        return {"square": lambda x: np.asarray(x) ** 2,
                "call": lambda x: np.maximum(np.asarray(x), 0.0),
                "abs": lambda x: np.abs(np.asarray(x))}[kind]

    def setup(self, tr):
        self.coarse = tr("gexp.grid", rd.GridSpec, *self.COARSE)
        self.base_band = tr("gexp.band", rd.VolatilityBand, *self.sigma)

    def kind(self, i):
        return self.KINDS[self.CYCLE[i % len(self.CYCLE)]]

    def job(self, tr, i):
        kind = self.kind(i)
        raw = self.jobs[i % self.N_JOBS]
        lo, hi = raw["band"]
        payoff_kind = self.PAYOFFS[(i // len(self.CYCLE)) % len(self.PAYOFFS)]
        out = {"kind": kind, "payoff": payoff_kind, "band": (lo, hi), "horizon": 1.0}
        if kind == "price":
            band = tr("gexp.band", rd.VolatilityBand, lo, hi)
            grid = tr("gexp.grid", rd.GridSpec, self.DT, self.H, raw["radius"],
                      raw["horizon"])
            cells = 2 * grid.n_steps * grid.x.size
            payoff = self.payoff(payoff_kind)
            quotes = {}
            for method in ("lattice", "pde"):
                bid, ask, _, _ = tr("gexp.price", rd.bid_ask, payoff, band, grid,
                                    method=method, work={"cells": cells})
                quotes[method] = (bid, ask)
            return {**out, "horizon": raw["horizon"], "quotes": quotes}
        if kind == "cond":
            band = tr("gexp.band", rd.VolatilityBand, lo, hi)
            spec = tr("gexp.payoff", rd.PayoffSpec, "cylinder",
                      lambda b1, b2: (b2 - b1) ** 2, monitoring_times=(raw["t1"], 1.0))
            k1 = int(round(raw["t1"] / self.coarse.dt))
            n = self.coarse.x.size
            cells = n * n * (self.coarse.n_steps - k1) + n * k1
            _, value = tr("gexp.cond", rd.conditional_gexp, spec, band, self.coarse, 0.0,
                          work={"cells": cells})
            return {**out, "t1": raw["t1"], "value": value(0.0)}
        if kind == "field":
            payoff = self.payoff(payoff_kind)
            cells = self.coarse.n_steps * self.coarse.x.size
            values = [tr("gexp.field", rd.expectation_under_field, payoff,
                         self.fields[(i + j) % self.N_FIELDS], self.coarse,
                         work={"cells": cells})
                      for j in range(raw["laws"])]
            return {**out, "values": values}
        config = {"task": "gexp", "seed": 0,
                  "band": {"sigma_low": lo, "sigma_high": hi},
                  "grid": dict(zip(("dt", "h", "radius", "horizon"), self.COARSE)),
                  "payoff": {"kind": payoff_kind},
                  "method": ("lattice", "pde")[(i // len(self.CYCLE)) % 2]}
        code = tr("cli.run", cli.run_experiment, config, str(self.out_dir))
        report = json.loads((self.out_dir / "report.json").read_text())
        tr.note(bytes=sum(f.stat().st_size for f in self.out_dir.iterdir()))
        return {**out, "code": code,
                "quotes": {"cli": (report["results"]["bid"], report["results"]["ask"])}}

    @staticmethod
    def closed_form(payoff_kind, lo, hi, horizon):
        """(bid, ask) targets with tolerances, from riskdesk.oracles."""
        if payoff_kind == "square":
            bid, ask = oracles.square_band_values(lo, hi, horizon)
            return (bid, BAND_TOL), (ask, SQUARE_ASK_TOL)
        scale = 1.0 if payoff_kind == "call" else 2.0  # |x| = x+ + (-x)+
        return ((scale * oracles.call_upper_value(lo, horizon), scale * BAND_TOL),
                (scale * oracles.call_upper_value(hi, horizon), scale * BAND_TOL))

    def check(self, i, out):
        fails = []
        kind = out["kind"]
        if kind == "cli" and out["code"] != 0:
            fails.append(f"cli exit code {out['code']}")
        if kind in ("price", "cli"):
            (bid_t, bid_tol), (ask_t, ask_tol) = self.closed_form(
                out["payoff"], *out["band"], out["horizon"])
            for method, (bid, ask) in out["quotes"].items():
                if bid > ask:
                    fails.append(f"{method}: bid {bid} above ask {ask}")
                if abs(bid - bid_t) > bid_tol or abs(ask - ask_t) > ask_tol:
                    fails.append(f"{method} {out['payoff']}: ({bid}, {ask}) vs "
                                 f"closed form ({bid_t}, {ask_t})")
            if kind == "price":
                (bl, al), (bp, ap) = out["quotes"]["lattice"], out["quotes"]["pde"]
                if max(abs(bl - bp), abs(al - ap)) > BAND_TOL:
                    fails.append("lattice and PDE quotes disagree")
        elif kind == "cond":
            lo, hi = out["band"]
            _, target = oracles.square_band_values(lo, hi, 1.0 - out["t1"])
            if abs(out["value"] - target) > SQUARE_ASK_TOL:
                fails.append(f"cylinder value {out['value']} vs closed form {target}")
        elif kind == "field":
            bid, ask = self.field_quotes(out["payoff"])
            for v in out["values"]:
                if v < bid - DOMINATION_TOL or v > ask + DOMINATION_TOL:
                    fails.append(f"in-band law priced at {v} outside [{bid}, {ask}]")
        return fails

    def field_quotes(self, payoff_kind):
        """(bid, ask) of the set-up band on the coarse grid, computed once."""
        if payoff_kind not in self._field_quotes:
            bid, ask, _, _ = rd.bid_ask(self.payoff(payoff_kind), self.base_band,
                                        self.coarse, method="pde")
            self._field_quotes[payoff_kind] = (bid, ask)
        return self._field_quotes[payoff_kind]

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


class PathMetric:
    """Skorokhod distances between seeded step paths; matching enumeration
    makes the cost exponential in the jump count."""

    name = "path-metric"
    # one cycle of (kind, jumps in x, jumps in y); the shares put the median
    # inside the dhat (2, 2) jobs and the 90th percentile inside dhat (3, 4)
    CYCLE = (("aligned", 1, 1), ("dm", 3, 3), ("dhat", 0, 1), ("dhat", 1, 1),
             ("j1", 4, 4), ("dm", 4, 4), ("j1", 5, 5)) \
        + (("dhat", 2, 2),) * 6 + (("dhat", 2, 3), ("dhat", 2, 3), ("dm", 5, 5)) \
        + (("dhat", 3, 4),) * 4
    # jump times on [0, 1), and on [0, inf) for d_m, drawn where every pair of
    # jumps may be matched, so the work of a job is set by its jump counts
    JUMP_RANGE = (0.05, 0.6)
    RAY_RANGE = (0.1, 1.9)
    M_LEVELS = 13              # dhat truncation level M = 8..20: its cost grows with M
    N_JOBS = 512
    SYMMETRY_SHARE = 0.0625    # share of dhat jobs re-run for symmetry/identity

    def __init__(self, inp: Inputs):
        self.pool = []
        for i in range(self.N_JOBS):
            kind, k1, k2 = self.CYCLE[i % len(self.CYCLE)]
            if kind == "aligned":
                a = inp.uniform(0.1, 0.5)
                raw = {"x": ([a], [1.0]), "y": ([a + 0.1], [1.0]), "m": 2}
            elif kind == "dm":
                m = inp.integers(1, 6)
                raw = {"x": self._jumps(inp, k1, *self.RAY_RANGE),
                       "y": self._jumps(inp, k2, *self.RAY_RANGE), "m": m}
            else:
                raw = {"x": self._jumps(inp, k1, *self.JUMP_RANGE),
                       "y": self._jumps(inp, k2, *self.JUMP_RANGE),
                       "M": 8 + (7 * i) % self.M_LEVELS}
            raw["kind"] = kind
            raw["symmetry"] = bool(inp.uniform() < self.SYMMETRY_SHARE)
            self.pool.append(raw)

    @staticmethod
    def _jumps(inp, k, lo, hi):
        return np.sort(inp.uniform(lo, hi, k)), inp.normal(k)

    def setup(self, tr):
        pass

    def job(self, tr, i):
        raw = self.pool[i % self.N_JOBS]
        kind = raw["kind"]
        horizon = 1.0 if kind in ("dhat", "j1") else None
        x = tr("skorokhod.path", rd.StepPath, *raw["x"], horizon=horizon)
        y = tr("skorokhod.path", rd.StepPath, *raw["y"], horizon=horizon)
        pairs = {"pairs": len(raw["x"][0]) * len(raw["y"][0])}
        if kind == "dhat":
            value, _ = tr("skorokhod.dhat", rd.dhat_distance, x, y, 1.0, M=raw["M"],
                          work=pairs)
            return {"x": x, "y": y, "value": value}
        if kind == "j1":
            value = tr("skorokhod.j1", rd.j1_distance, x, y, 1.0, work=pairs)
            return {"x": x, "y": y, "value": value}
        value, witness = tr("skorokhod.dm", rd.dm_distance, x, y, raw["m"], work=pairs)
        return {"x": x, "y": y, "value": value, "witness": witness}

    def check(self, i, out):
        raw = self.pool[i % self.N_JOBS]
        kind, x, y, value = raw["kind"], out["x"], out["y"], out["value"]
        fails = []
        if kind == "dhat":
            if not 0.0 <= value <= 1.0:
                fails.append(f"dhat {value} outside [0, 1]")
            if raw["symmetry"]:
                if rd.dhat_distance(y, x, 1.0, M=raw["M"])[0] != value:
                    fails.append("dhat is not symmetric")
                if rd.dhat_distance(x, x, 1.0, M=raw["M"])[0] != 0.0:
                    fails.append("dhat(a, a) != 0")
        elif kind == "j1":
            if rd.j1_distance(y, x, 1.0) != value:
                fails.append("j1 is not symmetric")
        else:
            m = raw["m"]
            if rd.dm_distance(y, x, m)[0] != value:
                fails.append("d_m is not symmetric")
            if kind == "aligned" and abs(value - 0.1) > ALIGNED_TOL:
                fails.append(f"aligned single-jump d_m = {value}, expected 0.1")
            if y.sort_key() < x.sort_key():  # the witness is for canonical order
                x, y = y, x
            dense = oracles.dense_timechange_cost(x, y, out["witness"], m)
            if dense > value + DENSE_SLACK:
                fails.append(f"witness costs {dense} densely, above d_m = {value}")
        return fails


WORKLOADS = {w.name: w for w in (TreeDeep, PenaltyLP, BandGrid, PathMetric)}
