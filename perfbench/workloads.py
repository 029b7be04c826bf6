"""Workload definitions: which fleet, which CLI calls, at what size.

A workload is one batch job a qdbench user would run.  Its inputs are a
fleet config written from a fleet seed and a CLI ``--seed`` (the run
seed); the program sees only the config file and its argv.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

FLEET_SEED = 2026


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pulses: int
    lossless: bool
    threads: int
    save_clicks: bool  # pipeline --save-clicks
    roundtrip: bool  # then `qdbench analyze` on every click file


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet_default",
            "the paper's standard 15-source fleet run at eta_total = 0.12 on nproc threads; "
            "photon_sim carries ~95% of the work and only this workload uses the thread pool",
            pulses=10_000_000, lossless=False, threads=len(os.sched_getaffinity(0)),
            save_clicks=False, roundtrip=False,
        ),
        Workload(
            "fleet_lossless",
            "the same fleet with lossless detection (eta = 1) on one thread; 8x the clicks per "
            "event put real load on the coincidence histogram and the decay trace",
            pulses=4_000_000, lossless=True, threads=1, save_clicks=False, roundtrip=False,
        ),
        Workload(
            "clicks_save",
            "lossless fleet saved with --save-clicks, no re-analysis; the timestamp text writer "
            "carries most of the load and simulation a minority",
            pulses=2_000_000, lossless=True, threads=1, save_clicks=True, roundtrip=False,
        ),
        Workload(
            "clicks_roundtrip",
            "lossless fleet saved with --save-clicks, then every click file re-analysed; the "
            "text timestamp I/O carries most of the load and simulation only ~15%",
            pulses=1_000_000, lossless=True, threads=1, save_clicks=True, roundtrip=True,
        ),
    )
}


def write_config(workload: Workload, fleet_seed: int, path: str) -> list[tuple[str, str]]:
    """Write the workload's fleet config; return (label, kind) per source."""
    from qdbench.config import FleetConfig, write_config as write_fleet
    from qdbench.fleet import draw_fleet
    from qdbench.model import SetupParams

    setup = SetupParams(eta_setup=1.0, eta_det=1.0) if workload.lossless else SetupParams()
    sources = draw_fleet(fleet_seed)
    write_fleet(FleetConfig.from_parts(sources, setup), path)
    return [(s.label, s.kind.value) for s in sources]


def run_cli(main, workload: Workload, config: str, labels: list[str], seed: int,
            pulses: int, out: str, analysis: str) -> list[int]:
    """Make the workload's CLI calls through ``main``; return their exit codes."""
    argv = ["pipeline", "--config", config, "--pulses", str(pulses), "--seed", str(seed),
            "--out", out, "--threads", str(workload.threads)]
    codes = [main(argv + ["--save-clicks"] if workload.save_clicks else argv)]
    if not workload.roundtrip:
        return codes
    for label in labels:
        src_out = os.path.join(analysis, label)
        codes.append(main(["analyze", "--timestamps", os.path.join(out, label, "hbt_clicks.csv"),
                           "--mode", "hbt", "--seed", str(seed), "--out", src_out]))
        hom = ["analyze", "--timestamps", os.path.join(out, label, "hom_clicks.csv"),
               "--mode", "hom", "--seed", str(seed), "--out", src_out]
        if codes[-1] == 0:
            with open(os.path.join(src_out, "hbt_clicks_estimates.json")) as f:
                hom += ["--g2", repr(json.load(f)["g2"])]
        codes.append(main(hom))
    return codes
