"""The benchmark's workloads: a fixed batch job each, its set-up, gate and probes.

A workload's job is a list of legs; a leg is one call into raclab.  The
runner repeats the job with fresh seeds for as long as the run lasts and
hands every result back to :meth:`Workload.gate`, which compares the
pooled outputs against closed forms.  The tolerances are those of the
acceptance criterion each check mirrors (see NOTES.md); where a run pools
more samples than the criterion uses, the criterion's width at its own
sample size is kept, so pooling only sharpens the estimate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference

INV_SQRT3 = 1.0 / math.sqrt(3.0)
ARRIVAL_GAIN = 0.45     # first-round multiplexing gain r used throughout


@dataclass
class Leg:
    """One call of a workload's fixed job."""

    label: str
    metric: str                               # leg rate it contributes to
    unit: str
    call: Callable[[int], Any]                # seed -> result
    work: Callable[[Any], float]              # result -> slots, epochs or trials
    check: Callable[[Any], tuple[bool, str]] | None = None
    key: tuple = ()                           # what the gate needs to know about the leg


@dataclass
class Call:
    """Outcome of one leg in one repetition of the job."""

    rep: int
    leg: int
    seconds: float                            # normalised to reference speed (speed.py)
    raw_seconds: float
    result: Any = None
    error: str | None = None


Check = tuple[bool, str]


def same(a, b) -> bool:
    """Bitwise equality of two results (dataclasses, arrays, floats, tuples)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (np.ndarray, np.generic, float)):
        x, y = np.asarray(a), np.asarray(b)
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            same(x, y) for x, y in zip(a, b))
    return a == b


def _results(calls: list[Call], leg: int) -> list:
    return [c.result for c in calls if c.leg == leg and c.error is None]


def _no_data(label: str) -> Check:
    return False, f"{label}: no successful call to check"


class Workload:
    """Common set-up (the dmt reference values) and gate checks."""

    name = ""
    speed_probe = "array"      # speed.py probe that slows down the way the job does

    def __init__(self, rl):
        self.rl = rl
        self.scalar2 = rl.system.AntennaConfig(users=2)
        self.irarq_l2 = rl.system.ProtocolParams(
            p_t=1.0, multiplexing_gain=ARRIVAL_GAIN, deadline=2)
        self.params = {
            "gta": rl.system.ProtocolParams(p_t=INV_SQRT3, multiplexing_gain=ARRIVAL_GAIN),
            "ondma": rl.system.ProtocolParams(p_t=1.0, multiplexing_gain=ARRIVAL_GAIN),
            "irarq": self.irarq_l2,
        }
        self.refs: dict[str, Any] = {}

    def rate_at(self, snr_db: float) -> float:
        return ARRIVAL_GAIN * math.log2(1.0 + 10.0 ** (snr_db / 10.0))

    def setup(self, seed: int) -> None:
        dmt = self.rl.dmt
        self.refs["pt_opt"] = dmt.gta_optimal_pt(self.scalar2)
        self.refs["tree"] = dmt.gta_recursion(4)
        self.refs["region"] = {
            "gta": dmt.stability_region("gta", self.scalar2, INV_SQRT3),
            "ondma": dmt.stability_region("ondma", self.scalar2, 1.0),
            "irarq_inf": dmt.stability_region(
                "irarq", self.scalar2, 1.0, arrival_gain=ARRIVAL_GAIN, deadline=2),
        }

    def legs(self) -> list[Leg]:
        raise NotImplementedError

    def gate(self, calls: list[Call]) -> tuple[list[Check], list[str]]:
        """Gate checks (each one operation) and informational notes."""
        p = self.refs["pt_opt"]
        region = self.refs["region"]
        checks = [
            (abs(p - INV_SQRT3) < 1e-4, f"gta_optimal_pt {p:.6f} vs 3^-0.5 within 1e-4 (criterion 1)"),
            (abs(region["gta"] - 2 * INV_SQRT3 / (1 + 3 * INV_SQRT3**2)) < 1e-12,
             f"tree region at 3^-0.5 {region['gta']:.12f} vs 2p/(1+3p^2) (criterion 3)"),
            (abs(region["ondma"] - 1.0) < 1e-12, f"repetition region at p_t=1 {region['ondma']:.12f} vs 1"),
            (abs(region["irarq_inf"] - 2.0) < 1e-12,
             f"deadline-ARQ region below the rate knee {region['irarq_inf']:.12f} vs 2"),
        ]
        return checks, []

    def probes(self, seed: int) -> list[Callable[[], Check]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# queue-delay: the random-arrival simulator
# ---------------------------------------------------------------------------

class QueueDelay(Workload):
    name = "queue-delay"
    speed_probe = "interpreter"

    HORIZON = 20_000             # slots per load point and repetition
    HORIZON_INF = 40_000         # the infinite-SNR point runs about 2.5x faster
    COMPANION_HORIZON = 600_000  # criterion-5 companion horizon at lam 0.4 and 1.0
    # protocol, snr_db, total arrival rate, horizon, leg rate, stability region, delay check;
    # "theory" gates on analytic_delay, "report" only prints the gap (see NOTES.md)
    POINTS = (
        ("irarq", 40.0, 0.4, HORIZON, "slots_per_s.irarq", "irarq_40", "theory"),
        ("irarq", 40.0, 1.0, HORIZON, "slots_per_s.irarq", "irarq_40", "theory"),
        ("irarq", 40.0, 1.6, HORIZON, "slots_per_s.irarq", "irarq_40", "report"),
        ("gta", 40.0, 0.45, HORIZON, "slots_per_s.gta", "gta", None),
        ("ondma", 40.0, 0.8, HORIZON, "slots_per_s.ondma", "ondma", None),
        ("irarq", None, 1.0, HORIZON_INF, "slots_per_s.irarq_inf", "irarq_inf", "closed-form"),
    )

    @staticmethod
    def label(point) -> str:
        protocol, snr_db, lam = point[:3]
        return f"{protocol} {'inf' if snr_db is None else f'{snr_db:.0f} dB'} lam={lam}"

    def setup(self, seed: int) -> None:
        super().setup(seed)
        # the criterion-5 companion's 40 dB table: same trials, same seed
        beta = self.rl.montecarlo.estimate_beta(
            self.scalar2, 40.0, self.rate_at(40.0), 2, trials=2_000_000, seed=1051)
        self.refs["region"]["irarq_40"] = self.rl.dmt.stability_region(
            "irarq", self.scalar2, 1.0, beta=beta)
        self.refs["theory"] = {
            p[2]: self.rl.queueing.analytic_delay(p[2], 2, 1.0, 2, beta)
            for p in self.POINTS if p[6] in ("theory", "report")
        }

    def legs(self) -> list[Leg]:
        legs = []
        for point in self.POINTS:
            protocol, snr_db, lam, horizon, metric = point[:5]

            def call(seed, protocol=protocol, snr_db=snr_db, lam=lam, horizon=horizon):
                return self.rl.queueing.simulate_random_arrivals(
                    protocol, self.scalar2, self.params[protocol], lam, snr_db, horizon, seed=seed)

            legs.append(Leg(self.label(point), metric, "slots/s", call,
                            lambda rep: rep.horizon_slots,
                            lambda rep: (rep.verdict != "unstable", f"verdict {rep.verdict}")))
        return legs

    def gate(self, calls: list[Call]) -> tuple[list[Check], list[str]]:
        checks, notes = super().gate(calls)
        for i, point in enumerate(self.POINTS):
            lam, region_key, kind = point[2], point[5], point[6]
            region = self.refs["region"][region_key]
            checks.append((lam < region, f"load {lam} inside the {region_key} stability "
                                         f"region {region:.4f}"))
            reports = _results(calls, i)
            label = self.label(point)
            if kind is None:
                continue
            if not reports:
                checks.append(_no_data(label))
                continue
            w = np.array([r.packets for r in reports], dtype=float)
            w /= w.sum()
            delay = float(np.dot(w, [r.delay for r in reports]))
            ci = float(np.sqrt(np.sum((w * [r.delay_ci for r in reports]) ** 2)))
            slots = sum(r.horizon_slots for r in reports)
            if kind == "closed-form":
                target = reference.infinite_snr_delay(lam)
                gap = abs(delay - target)
                checks.append((gap <= 0.05, f"{label}: pooled delay {delay:.4f} vs closed form "
                                            f"{target:.4f} (gap {gap:.4f}, tol 0.05; {slots} slots)"))
                continue
            theory = self.refs["theory"][lam]
            gap = abs(delay - theory)
            # the companion's tolerance: 2% model slack plus the 95% delay CI,
            # the CI never narrower than at the companion's own horizon
            tol = 0.02 * theory + ci * math.sqrt(max(1.0, slots / self.COMPANION_HORIZON))
            msg = (f"{label}: pooled delay {delay:.4f} vs finite-SNR theory {theory:.4f} "
                   f"(gap {gap:.4f}, tol {tol:.4f}; {slots} slots)")
            if kind == "theory":
                checks.append((gap <= tol, msg))
            else:
                notes.append(msg + " [not gated, see NOTES.md]")
        return checks, notes

    def probes(self, seed: int) -> list[Callable[[], Check]]:
        def replay():
            args = ("irarq", self.scalar2, self.irarq_l2, 1.0, 40.0, 4000)
            a = self.rl.queueing.simulate_random_arrivals(*args, seed=seed)
            b = self.rl.queueing.simulate_random_arrivals(*args, seed=seed)
            return same(a, b), "simulate_random_arrivals replays bitwise for one seed"
        return [replay]


# ---------------------------------------------------------------------------
# fully-loaded: the batched estimators, scalar channel
# ---------------------------------------------------------------------------

class FullyLoaded(Workload):
    name = "fully-loaded"

    CHUNK_EPOCHS = 1 << 18          # montecarlo.DEFAULT_CHUNK: one full chunk per call
    THROUGHPUT_SLOTS = 400_000      # criterion 7's horizon, per call
    TREE_REFERENCE_EPOCHS = 10**6   # criterion 2's epochs per collision size
    PE_SNRS = (20.0, 30.0, 40.0)
    THROUGHPUT_SNRS = (10.0, 30.0)
    TREE_SIZES = (2, 3, 4)

    def setup(self, seed: int) -> None:
        super().setup(seed)
        mc = self.rl.montecarlo
        predictions = {}
        for snr_db in self.THROUGHPUT_SNRS:
            # criterion 7's tables: same trials, same seed
            beta = mc.estimate_beta(self.scalar2, snr_db, self.rate_at(snr_db), 2,
                                    trials=10**6, seed=1071)
            for protocol, params in self.params.items():
                predictions[protocol, snr_db] = mc.renewal_prediction(
                    protocol, self.scalar2, params, beta if protocol == "irarq" else None)
        self.refs["prediction"] = predictions

    def legs(self) -> list[Leg]:
        legs = []
        for protocol, params in self.params.items():
            for snr_db in self.PE_SNRS:
                legs.append(Leg(
                    f"pe {protocol} {snr_db:.0f} dB", f"epochs_per_s.{protocol}", "epochs/s",
                    lambda seed, p=protocol, q=params, s=snr_db:
                        self.rl.montecarlo.system_error_probability(
                            p, self.scalar2, q, s, self.CHUNK_EPOCHS, seed=seed),
                    lambda est: est.trials))
            for snr_db in self.THROUGHPUT_SNRS:
                legs.append(Leg(
                    f"throughput {protocol} {snr_db:.0f} dB", f"epochs_per_s.{protocol}", "epochs/s",
                    lambda seed, p=protocol, q=params, s=snr_db:
                        self.rl.montecarlo.fully_loaded_throughput(
                            p, self.scalar2, q, s, self.THROUGHPUT_SLOTS, seed=seed),
                    lambda est: est.epochs, key=("throughput", protocol, snr_db)))
        legs.append(Leg(
            "beta K=2 40 dB", "trials_per_s.beta_k2", "trials/s",
            lambda seed: self.rl.montecarlo.estimate_beta(
                self.scalar2, 40.0, self.rate_at(40.0), 2, self.CHUNK_EPOCHS, seed=seed),
            lambda table: table.trials))
        for k in self.TREE_SIZES:
            legs.append(Leg(
                f"gta tree k={k}", "epochs_per_s.gta_tree", "epochs/s",
                lambda seed, k=k: self.rl.montecarlo.gta_collision_stats(
                    k, self.CHUNK_EPOCHS, seed=seed),
                lambda stats: self.CHUNK_EPOCHS, key=("tree", k)))
        return legs

    def gate(self, calls: list[Call]) -> tuple[list[Check], list[str]]:
        checks, notes = super().gate(calls)
        for i, leg in enumerate(self.legs()):
            results = _results(calls, i)
            if leg.key and not results:
                checks.append(_no_data(leg.label))
            elif leg.key[:1] == ("throughput",):
                _, protocol, snr_db = leg.key
                pred, pred_se = self.refs["prediction"][protocol, snr_db]
                est = float(np.mean([r.per_rate for r in results]))
                # every call has criterion 7's size: keep its one-call standard error
                se_one = math.sqrt(float(np.mean([r.per_rate_stderr ** 2 for r in results])))
                tol = 3 * math.sqrt(se_one**2 + pred_se**2) + 1e-12
                gap = abs(est - pred)
                checks.append((gap <= tol, f"{leg.label}: mean of {len(results)} calls {est:.5f} vs "
                                           f"renewal prediction {pred:.5f} (gap {gap:.5f}, "
                                           f"tol {tol:.5f}; criterion 7)"))
            elif leg.key[:1] == ("tree",):
                k = leg.key[1]
                tree = self.refs["tree"]
                n = len(results) * self.CHUNK_EPOCHS
                widen = math.sqrt(max(1.0, n / self.TREE_REFERENCE_EPOCHS))
                for what, col, exact in (("length", 0, tree.expected_slots[k]),
                                         ("delivered", 2, tree.expected_successes[k])):
                    mean = float(np.mean([r[col] for r in results]))
                    se = math.sqrt(sum(r[col + 1] ** 2 for r in results)) / len(results)
                    tol = 3 * se * widen + 1e-12
                    gap = abs(mean - float(exact))
                    checks.append((gap <= tol, f"gta tree k={k}: mean {what} {mean:.5f} vs exact "
                                               f"{float(exact):.5f} (gap {gap:.5f}, tol {tol:.5f}; "
                                               f"{n} epochs; criterion 2)"))
        return checks, notes

    def probes(self, seed: int) -> list[Callable[[], Check]]:
        mc = self.rl.montecarlo

        def replay():
            args = ("irarq", self.scalar2, self.irarq_l2, 30.0, 1 << 15)
            a = mc.system_error_probability(*args, seed=seed)
            b = mc.system_error_probability(*args, seed=seed)
            return same(a, b), "system_error_probability replays bitwise for one seed"

        def workers():
            args = (self.scalar2, 40.0, self.rate_at(40.0), 2, 1 << 15)
            a = mc.estimate_beta(*args, seed=seed, chunk=1 << 13, workers=1)
            b = mc.estimate_beta(*args, seed=seed, chunk=1 << 13, workers=2)
            return same(a, b), "estimate_beta K=2 is bitwise equal with workers=1 and workers=2"

        return [replay, workers]


# ---------------------------------------------------------------------------
# mimo-beta: the rx>1 channel kernel
# ---------------------------------------------------------------------------

class MimoBeta(Workload):
    name = "mimo-beta"

    SNR_DB = 20.0
    # (users K, tx M, rx N, trials per call, leg-rate metric)
    SHAPES = (
        (4, 2, 4, 20_000, "trials_per_s.k4_2x4"),
        (3, 2, 2, 40_000, "trials_per_s.k3_2x2"),
    )
    BATTERY = 2000                      # reference epochs per shape and SNR
    BATTERY_SNRS = (20.0, 0.0)          # 0 dB makes multi-round decisions common

    def setup(self, seed: int) -> None:
        super().setup(seed)
        rng = np.random.default_rng([seed, 0x6D696D6F])
        never = self.rl.channel.NEVER
        rate = self.rate_at(self.SNR_DB)
        battery = []
        for users, tx, rx in [(k, m, n) for k, m, n, _, _ in self.SHAPES] + [(2, 1, 1)]:
            for snr_db in self.BATTERY_SNRS:
                gains = reference.draw_gains(rng, (self.BATTERY, users, rx, tx))
                snr = 10.0 ** (snr_db / 10.0)
                expected = reference.first_decodable_round(gains, snr, rate, never)
                battery.append((f"K={users} {tx}x{rx} {snr_db:.0f} dB", gains, snr, rate, expected))
        self.refs["battery"] = battery

    def legs(self) -> list[Leg]:
        legs = []
        for users, tx, rx, trials, metric in self.SHAPES:
            config = self.rl.system.AntennaConfig(users=users, tx=tx, rx=rx)
            legs.append(Leg(
                f"beta K={users} {tx}x{rx}", metric, "trials/s",
                lambda seed, c=config, t=trials: self.rl.montecarlo.estimate_beta(
                    c, self.SNR_DB, self.rate_at(self.SNR_DB), 2, t, seed=seed),
                lambda table: table.trials))
        return legs

    def gate(self, calls: list[Call]) -> tuple[list[Check], list[str]]:
        checks, notes = super().gate(calls)
        kernel = self.rl.channel.batch_first_decodable_round
        for label, gains, snr, rate, expected in self.refs["battery"]:
            got = kernel(gains, snr, rate)
            agree = int(np.sum(got == expected))
            spread = f"rounds {int(expected.min())}..{int(expected.max())}"
            checks.append((np.array_equal(got, expected),
                           f"batch_first_decodable_round {label}: {agree}/{len(expected)} epochs "
                           f"equal the slogdet reference ({spread})"))
        return checks, notes

    def probes(self, seed: int) -> list[Callable[[], Check]]:
        mc = self.rl.montecarlo
        config = self.rl.system.AntennaConfig(users=3, tx=2, rx=2)
        args = (config, self.SNR_DB, self.rate_at(self.SNR_DB), 2, 4096)

        def replay():
            a = mc.estimate_beta(*args, seed=seed, chunk=1024, workers=1)
            b = mc.estimate_beta(*args, seed=seed, chunk=1024, workers=1)
            return same(a, b), "estimate_beta K=3 2x2 replays bitwise for one seed"

        def workers():
            a = mc.estimate_beta(*args, seed=seed, chunk=1024, workers=1)
            b = mc.estimate_beta(*args, seed=seed, chunk=1024, workers=2)
            return same(a, b), "estimate_beta K=3 2x2 is bitwise equal with workers=1 and workers=2"

        return [replay, workers]


WORKLOADS = {w.name: w for w in (QueueDelay, FullyLoaded, MimoBeta)}
