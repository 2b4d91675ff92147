"""Command-line front end: wires experiment configs to the analytics and
Monte Carlo engines and emits figure-ready CSV.

Subcommands: dmt, gta-recursion, beta, throughput, pe, delay, stability.
Options may come from a JSON config file (--config) whose keys are the flag
names with underscores; any flag given on the command line overrides the
corresponding JSON field.  Defaults follow the two-user single-antenna
examples: K=2, arrival gain 0.45, per-protocol transmission probabilities
(1 for O-NDMA and IR-ARQ; for the splitting tree 1/sqrt(3), its two-user
optimum, at every K, not the K-user optimum of :func:`dmt.optimal_pt`).
Exit code 0 on success, 2 on any input the CLI or the library rejects.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from . import dmt, montecarlo, queueing
from .system import GTA, IRARQ, ONDMA, PROTOCOLS, AntennaConfig, ProtocolParams, snr_from_db

SIM_HEADER = "snr_db,protocol,L,p_t,r,metric,value,stderr,trials,seed".split(",")
DELAY_HEADER = "protocol,K,M,N,L,p_t,r_A,snr_db,lambda,delay,delay_ci,pe,verdict,seed".split(",")
DMT_HEADER = "r_e,d,protocol,L,p_t".split(",")
DEFAULT_PT = {GTA: 1.0 / math.sqrt(3.0), ONDMA: 1.0, IRARQ: 1.0}
RATE_KEYS = {"multiplexing": "multiplexing_gain", "fixed-R": "rate"}


@dataclass
class ExperimentConfig:
    """Every option; JSON keys are the field names, except ``lambda`` for ``lam``."""

    protocols: list[str] = field(default_factory=lambda: list(PROTOCOLS))
    users: int = 2
    tx_ant: int = 1
    rx_ant: int = 1
    deadline: list[int] = field(default_factory=lambda: [2])
    pt: float | None = None            # None: per-protocol default
    snr_db: list[float] = field(default_factory=lambda: [10.0, 20.0, 30.0])
    lam: list[float] = field(default_factory=lambda: [0.5, 1.0, 1.5])
    rate_mode: str = "multiplexing"    # or "fixed-R"
    r: float = 0.45
    trials: int = 100_000
    horizon: int = 40_000
    seed: int | None = None
    out: str | None = None
    workers: int = 1
    kmax: int = 8
    scan: bool = False

    def antenna(self) -> AntennaConfig:
        return AntennaConfig(users=self.users, tx=self.tx_ant, rx=self.rx_ant)

    def queue_antenna(self) -> AntennaConfig:
        """Antenna geometry of a random-arrival run, whose tables grow as 2^K."""
        antenna = self.antenna()
        if antenna.users > queueing.MAX_TABLE_USERS:
            raise ValueError(f"random-arrival runs take at most {queueing.MAX_TABLE_USERS} users")
        return antenna

    def params_for(self, protocol: str, deadline: int | None) -> ProtocolParams:
        if self.rate_mode not in RATE_KEYS:
            raise ValueError(f"unknown rate mode {self.rate_mode!r}")
        p_t = self.pt if self.pt is not None else DEFAULT_PT[protocol]
        return ProtocolParams(p_t=p_t, deadline=deadline, **{RATE_KEYS[self.rate_mode]: self.r})

    def runs(self):
        """(protocol, deadline, params) of each protocol, IR-ARQ once per deadline."""
        for protocol in self.protocols:
            for ell in self.deadline if protocol == IRARQ else [None]:
                yield protocol, ell, self.params_for(protocol, ell)

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValueError("simulation subcommands need an explicit --seed")
        return self.seed

    def validate(self):
        if not self.protocols:
            raise ValueError("protocol list is empty")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ValueError(f"unknown protocol {p!r}")
        if not self.snr_db:
            raise ValueError("SNR grid is empty")
        if not self.deadline or any(d < 1 for d in self.deadline):
            raise ValueError("deadline list must contain integers >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _fits(value, hint) -> bool:
    """True if a JSON value has the annotated type; an int is a float, a bool is no number."""
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if get_origin(hint) is UnionType:
        return any(_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    hints = get_type_hints(ExperimentConfig)
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in data.items():
            name = "lam" if key == "lambda" else key
            if key == "lam" or name not in hints:
                raise ValueError(f"unknown config key {key!r}")
            if not _fits(value, hints[name]):
                annotation = ExperimentConfig.__annotations__[name]
                raise ValueError(f"config key {key!r} must be {annotation}, got {value!r}")
            setattr(cfg, name, value)
    for name in hints:     # a flag given on the command line overrides the file
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    if cfg.out:
        try:     # fail before any simulation runs, not after; an existing file is kept as is
            open(cfg.out, "a").close()
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from None
    return cfg


def _write_rows(cfg: ExperimentConfig, header: list[str], rows: list[list]):
    with open(cfg.out, "w", newline="") if cfg.out else contextlib.nullcontext(sys.stdout) as fh:
        csv.writer(fh).writerows([header, *rows])


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dmt(cfg: ExperimentConfig):
    antenna = cfg.antenna()
    rows = []
    for protocol, ell, params in cfg.runs():
        # the IR-ARQ curve is the one at p_t = 1, whatever --pt says
        p_t = 1.0 if protocol == IRARQ else params.p_t
        curve = dmt.tradeoff_curve(protocol, antenna, p_t=p_t, deadline=ell)
        for pt_ in curve:
            rows.append([_fmt(pt_.r_e), _fmt(pt_.d), protocol, _fmt(pt_.deadline), _fmt(p_t)])
    _write_rows(cfg, DMT_HEADER, rows)


def cmd_gta_recursion(cfg: ExperimentConfig):
    table = dmt.gta_recursion(cfg.kmax)
    rows = []
    for k in range(cfg.kmax + 1):
        x = table.expected_slots[k]
        j = table.expected_successes[k]
        rows.append([k, _fmt(float(x)), _fmt(float(j)), str(x), str(j)])
    _write_rows(cfg, ["k", "X", "J", "X_exact", "J_exact"], rows)


def cmd_beta(cfg: ExperimentConfig):
    seed = cfg.require_seed()
    antenna = cfg.antenna()
    rows = []
    for deadline in cfg.deadline:
        params = cfg.params_for(IRARQ, deadline)
        for snr_db in cfg.snr_db:
            rate = params.rate_at(snr_from_db(snr_db))
            table = montecarlo.estimate_beta(
                antenna, snr_db, rate, deadline, cfg.trials, seed, workers=cfg.workers
            )
            # a table is per collision size and reads no p_t: the field is empty
            for k in range(1, antenna.users + 1):
                for ell in range(1, deadline + 1):
                    rows.append([
                        _fmt(snr_db), IRARQ, deadline, "", _fmt(cfg.r),
                        f"beta_k{k}_l{ell}", _fmt(table.beta(k, ell)),
                        _fmt(float(table.stderr[k - 1, ell])), cfg.trials, seed,
                    ])
    _write_rows(cfg, SIM_HEADER, rows)


def cmd_throughput(cfg: ExperimentConfig):
    seed = cfg.require_seed()
    antenna = cfg.antenna()
    rows = []
    for protocol, ell, params in cfg.runs():
        for snr_db in cfg.snr_db:
            est = montecarlo.fully_loaded_throughput(
                protocol, antenna, params, snr_db, cfg.horizon, seed
            )
            beta = None
            if protocol == IRARQ:
                beta = montecarlo.estimate_beta(
                    antenna, snr_db, params.rate_at(snr_from_db(snr_db)), ell,
                    cfg.trials, seed + 1, workers=cfg.workers,
                )
            pred, pred_se = montecarlo.renewal_prediction(protocol, antenna, params, beta)
            base = [_fmt(snr_db), protocol, _fmt(ell), _fmt(params.p_t), _fmt(cfg.r)]
            rows.append(base + ["throughput_per_rate", _fmt(est.per_rate),
                                _fmt(est.per_rate_stderr), est.epochs, seed])
            rows.append(base + ["throughput_bpcu", _fmt(est.bits_per_channel_use),
                                _fmt(est.per_rate_stderr * (est.rate or 0.0)), est.epochs, seed])
            rows.append(base + ["renewal_prediction_per_rate", _fmt(pred), _fmt(pred_se),
                                cfg.trials if beta else 0, seed])
    _write_rows(cfg, SIM_HEADER, rows)


def cmd_pe(cfg: ExperimentConfig):
    seed = cfg.require_seed()
    antenna = cfg.antenna()
    rows = []
    for protocol, ell, params in cfg.runs():
        samples = []
        for snr_db in cfg.snr_db:
            est = montecarlo.system_error_probability(
                protocol, antenna, params, snr_db, cfg.trials, seed, workers=cfg.workers
            )
            base = [_fmt(snr_db), protocol, _fmt(ell), _fmt(params.p_t), _fmt(cfg.r)]
            rows.append(base + ["system_error_prob", _fmt(est.value), _fmt(est.stderr),
                                cfg.trials, seed])
            for u in range(antenna.users):
                rows.append(base + [f"per_user_error_prob_{u}", _fmt(float(est.per_user[u])),
                                    _fmt(float(est.per_user_stderr[u])), cfg.trials, seed])
            if est.value > 0:
                samples.append((snr_from_db(snr_db), est.value))
        if len(samples) >= 3:
            slope = montecarlo.diversity_slope(samples)
            rows.append([_fmt(max(cfg.snr_db)), protocol, _fmt(ell), _fmt(params.p_t),
                         _fmt(cfg.r), "diversity_slope", _fmt(slope), "", cfg.trials, seed])
    _write_rows(cfg, SIM_HEADER, rows)


def _delay_row(antenna, protocol, ell, params, cfg, snr_db, lam, delay, ci, pe, verdict, seed):
    return [
        protocol, antenna.users, antenna.tx, antenna.rx, _fmt(ell), _fmt(params.p_t),
        _fmt(cfg.r), _fmt(snr_db), _fmt(lam), _fmt(delay), _fmt(ci), _fmt(pe), verdict, seed,
    ]


def cmd_delay(cfg: ExperimentConfig):
    seed = cfg.require_seed()
    antenna = cfg.queue_antenna()
    for lam in cfg.lam:
        if not (0.0 <= lam <= antenna.users):
            raise ValueError(f"arrival rate {lam} outside [0, K]")
    rows = []
    for protocol, ell, params in cfg.runs():
        for snr_db in cfg.snr_db:
            analytic_beta = None
            if protocol == IRARQ:
                rate = params.rate_at(snr_from_db(snr_db))
                analytic_beta = montecarlo.estimate_beta(
                    antenna, snr_db, rate, ell, cfg.trials, seed + 1, workers=cfg.workers
                )
            for i, lam in enumerate(cfg.lam):
                rep = queueing.simulate_random_arrivals(
                    protocol, antenna, params, lam, snr_db, cfg.horizon, [seed, i]
                )
                rows.append(_delay_row(antenna, protocol, ell, params, cfg, snr_db, lam,
                                       rep.delay, rep.delay_ci, rep.pe, rep.verdict, seed))
                if analytic_beta is not None:
                    d = queueing.analytic_delay(lam, antenna.users, params.p_t, ell, analytic_beta)
                    verdict = "stable" if math.isfinite(d) else "unstable"
                    rows.append(_delay_row(antenna, protocol + "-analytic", ell, params, cfg,
                                           snr_db, lam, d, 0.0, "", verdict, seed))
    _write_rows(cfg, DELAY_HEADER, rows)


def cmd_stability(cfg: ExperimentConfig):
    seed = cfg.require_seed() if cfg.scan else None
    antenna = cfg.queue_antenna() if cfg.scan else cfg.antenna()
    lines = []
    rows = []
    for protocol, ell, params in cfg.runs():
        if protocol == IRARQ and params.multiplexing_gain is None:
            raise ValueError("the IR-ARQ stability region needs --rate-mode multiplexing")
        lam_max = dmt.stability_region(protocol, antenna, params.p_t,
                                       arrival_gain=params.multiplexing_gain, deadline=ell)
        lines.append(f"{protocol:8s} L={_fmt(ell):4s} p_t={params.p_t:.6f}  "
                     f"lambda_max={lam_max:.6f}")
        if not cfg.scan:
            continue
        grid = [lam_max + s for s in (-0.15, -0.10, -0.05, 0.05, 0.10, 0.15)]
        grid = [g for g in grid if g > 0]
        for snr_db in cfg.snr_db:
            scan = queueing.stability_boundary_scan(
                protocol, antenna, params, snr_db, grid, seed, cfg.horizon
            )
            lines.append(f"{'':8s} scan at {_fmt(snr_db)} dB: boundary ~ {_fmt(scan.boundary)}")
            for rep in scan.reports:
                rows.append(_delay_row(antenna, protocol, ell, params, cfg, snr_db,
                                       rep.total_rate, rep.delay, rep.delay_ci, rep.pe,
                                       rep.verdict, seed))
    # scan rows without --out own stdout, so the summary goes to stderr
    print("\n".join(lines), file=sys.stderr if cfg.scan and not cfg.out else sys.stdout)
    if cfg.scan:
        _write_rows(cfg, DELAY_HEADER, rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--protocol", dest="protocols", nargs="+", choices=PROTOCOLS)
    sub.add_argument("--users", type=int)
    sub.add_argument("--tx-ant", type=int)
    sub.add_argument("--rx-ant", type=int)
    sub.add_argument("--deadline", nargs="+", type=int, help="ARQ round limits L (IR-ARQ)")
    sub.add_argument("--pt", type=float,
                     help="transmission probability (default: 1 for ondma and irarq; 1/sqrt(3), "
                          "the two-user optimum, for gta at every K)")
    sub.add_argument("--snr-db", nargs="+", type=float)
    sub.add_argument("--lambda", dest="lam", nargs="+", type=float,
                     help="total arrival rates, packets/slot")
    sub.add_argument("--rate-mode", choices=["multiplexing", "fixed-R"],
                     help="rate scales as r*log2(1+snr), or stays fixed at --r bits/use")
    sub.add_argument("--r", type=float,
                     help="multiplexing gain (or fixed rate with --rate-mode fixed-R)")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--horizon", type=int, help="slots per simulation run")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="CSV output path (default stdout)")
    sub.add_argument("--workers", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raclab",
        description="Random-access channel laboratory: tradeoff analytics and "
                    "Monte Carlo simulation of collision-resolution protocols.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    specs = {
        "dmt": (cmd_dmt, "tradeoff curves d(r_e) per protocol"),
        "gta-recursion": (cmd_gta_recursion, "expected splitting-tree slots/deliveries"),
        "beta": (cmd_beta, "Monte Carlo per-round survival probabilities"),
        "throughput": (cmd_throughput, "fully-loaded throughput vs renewal prediction"),
        "pe": (cmd_pe, "system error probability across an SNR grid"),
        "delay": (cmd_delay, "random-arrival delay simulation (plus analytic curve)"),
        "stability": (cmd_stability, "analytic stability regions, optional boundary scan"),
    }
    for name, (fn, help_) in specs.items():
        sub = subs.add_parser(name, help=help_)
        _add_common(sub)
        if name == "gta-recursion":
            sub.add_argument("--kmax", type=int)
        if name == "stability":
            sub.add_argument("--scan", action="store_true", default=None)
        sub.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(_load_config(args))
    except ValueError as exc:     # the library raises it only for invalid inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
