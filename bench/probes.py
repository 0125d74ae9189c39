"""Layer probes run inside a traced step, after its CLI call.

Each probe calls a public function of one layer with fixed, seed-free
sizes, so that every traced run reports every per-layer metric even where
its workload's pipeline never calls that function. The spans come from
the tracer already installed in the process; the probes return only the
exact counts the spans cannot carry.
"""
from __future__ import annotations


def battery_probes(args: list[str]) -> dict:
    """args: modes ("int,real"), then status files.

    Needs the null laws, so it runs in the traced ``test`` process, which
    has already paid for them. Runs every battery test in both modes on the
    first status, then the same small campaign with one and two workers.
    """
    from mtstreams.campaign import CampaignConfig, load_status_entries, run_campaign
    from mtstreams.stats import families
    from mtstreams.stats.battery import MINI_CRUSH_V1
    from mtstreams.stats.stream import StreamView

    modes, paths = tuple(args[0].split(",")), args[1:]
    entries = load_status_entries(paths)
    battery = MINI_CRUSH_V1
    p_bits: dict = {}
    draws: dict = {}
    for mode in ("int", "real"):
        for t in battery.tests:
            r = families.run_test(t, StreamView(entries[0].state, mode), battery.threshold)
            p_bits[t.id, mode] = [(k, v.hex()) for k, v in r.p_values.items()]
            draws[t.id] = r.draws
    identical = sum(p_bits[t.id, "int"] == p_bits[t.id, "real"] for t in battery.tests)
    for jobs in (1, 2):
        run_campaign(entries, CampaignConfig(battery=battery, modes=modes, jobs=jobs))
    return {"draws": draws, "mode_identical_tests": identical}


def layer_probes(args: list[str]) -> dict:
    """args: a results.jsonl path. Generator, partition and report probes."""
    from mtstreams import mt19937, partition
    from mtstreams.campaign import read_results_jsonl
    from mtstreams.reports import TABLES, render_report

    for seed in range(256):
        mt19937.init_genrand(seed)
    state = mt19937.init_genrand(5489)
    for _ in range(256):
        state = mt19937.twist(state)
    mt19937.advance(mt19937.init_genrand(5489), 10**7)
    partition.generate_indexed(0, 256)
    partition.generate_random_spacing(5489, 256)
    partition.generate_sequence_splitting(5489, 10**6, 8)
    creport = read_results_jsonl(args[0])
    for fmt in ("md", "csv", "json"):
        for _ in range(3):
            render_report(creport, list(TABLES), fmt)
    return {}
