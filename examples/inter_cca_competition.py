#!/usr/bin/env python3
"""Inter-CCA competition: who gets the bandwidth? (Figs 5-8)

Runs three head-to-head competitions on the same scaled CoreScale
bottleneck and compares measured shares against the paper's reference
numbers:

1. Cubic vs NewReno, equal counts   (paper: Cubic takes 70-80%)
2. one BBR flow vs many NewReno     (paper: BBR takes ~40%)
3. BBR vs NewReno, equal counts     (paper: BBR takes up to 99.9%)

Run time: several minutes of wall clock.

    python examples/inter_cca_competition.py
"""

from repro import FlowGroup, Scenario, run_experiment
from repro.units import bdp_bytes, mbps

BOTTLENECK = mbps(200)
BUFFER = bdp_bytes(BOTTLENECK, 0.200)
RTT = 0.020


QUICK = False


def compete(name, groups, duration=120.0, warmup=40.0):
    if QUICK:
        duration, warmup = duration / 6, warmup / 6
    scenario = Scenario(
        name=name,
        bottleneck_bw_bps=BOTTLENECK,
        buffer_bytes=BUFFER,
        groups=groups,
        duration=duration,
        warmup=warmup,
        stagger_max=5.0,
        seed=23,
    )
    return run_experiment(scenario)


def main() -> None:
    global QUICK
    import sys
    QUICK = "--quick" in sys.argv
    print("1) Cubic vs NewReno, 30 flows each (paper: Cubic ~70-80%)")
    r = compete("cubic-v-reno", (FlowGroup("cubic", 30, RTT),
                                 FlowGroup("newreno", 30, RTT)))
    print(f"   cubic share: {r.shares()['cubic']:.1%}   "
          f"(newreno intra-JFI {r.jfi('newreno'):.3f})")

    print("2) one BBR flow vs 99 NewReno (paper: BBR ~40%)")
    r = compete("one-bbr", (FlowGroup("bbr", 1, RTT),
                            FlowGroup("newreno", 99, RTT)),
                duration=150.0, warmup=50.0)
    fair = 1 / 100
    share = r.shares()["bbr"]
    print(f"   bbr share: {share:.1%}  = {share / fair:.0f}x its fair share")

    print("3) BBR vs NewReno, 50 flows each (paper: BBR up to 99.9%)")
    r = compete("bbr-equal", (FlowGroup("bbr", 50, RTT),
                              FlowGroup("newreno", 50, RTT)))
    print(f"   bbr share: {r.shares()['bbr']:.1%}   "
          f"(bbr intra-JFI {r.jfi('bbr'):.3f} — Finding 5's unfairness "
          f"shows up here too)")


if __name__ == "__main__":
    main()
