"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
The six scenario datasets are generated once per session (10 seeds each for
the balance criterion; the seed-0 runs are reused by the detector criteria).
"""

import math
import random
import time

import numpy as np
import pytest

from scadasim.capture import export_csv
from scadasim.cli import main as cli_main
from scadasim.engine import Engine
from scadasim.ids import evaluate_grid
from scadasim.ids.neighbors import KnnDetector, LofDetector
from scadasim.network import (
    IctTopology,
    NetLink,
    NetNode,
    NetworkFabric,
    SpanConfig,
)
from scadasim.powergrid import (
    Bus,
    Der,
    Feeder,
    GridModel,
    Line,
    Load,
    Transformer,
)
from scadasim.scenario import load_fixture, run_scenario

from power_balance import check_power_balance

SEEDS = list(range(10))
TABLE1_ATTACK_SHARES = {1: 98.05, 2: 97.75, 3: 98.01, 4: 72.80, 5: 71.86, 6: 71.02}
RTU_ADDRESS = "10.0.0.11"
ALGOS = ("rf", "knn", "lof", "iforest")


def train_scenario_for(test_sid: int) -> int:
    """Cross-scenario protocol: train on the lowest-id other scenario of the family."""
    family = (1, 2, 3) if test_sid <= 3 else (4, 5, 6)
    return next(s for s in family if s != test_sid)


@pytest.fixture(scope="session")
def scenario_runs():
    """10-seed sweep of all six scenarios: summary stats + retained seed-0 runs."""
    stats = {}
    seed0 = {}
    for sid in range(1, 7):
        config = load_fixture(sid)
        for seed in SEEDS:
            result = run_scenario(config, seed=seed)
            ds = result.dataset
            impact_ms = result.attacker.state.impact[0][1] if result.attacker.state.impact else None
            rtu_after = pre_rate = post_rate = None
            if impact_ms is not None:
                rtu_after = sum(
                    1 for r in ds.records if r.src == RTU_ADDRESS and r.time_ms > impact_ms
                )
                pre = sum(1 for r in ds.records if r.label == "normal" and r.time_ms < impact_ms)
                post = sum(1 for r in ds.records if r.label == "normal" and r.time_ms > impact_ms)
                pre_rate = pre / (impact_ms / 1000.0)
                post_rate = post / ((result.final_step * 1000 + 999 - impact_ms) / 1000.0)
            stats[(sid, seed)] = {
                "share": ds.balance[0],
                "impact_ms": impact_ms,
                "rtu_after": rtu_after,
                "pre_rate": pre_rate,
                "post_rate": post_rate,
            }
            if seed == 0:
                seed0[sid] = result
    return stats, seed0


@pytest.fixture(scope="session")
def ids_grid(scenario_runs):
    """``evaluate_grid`` on the seed-0 datasets, once per training scenario:
    the F1 cell of each (algorithm, test scenario) and the model of each
    (algorithm, training scenario)."""
    _, seed0 = scenario_runs
    cells, models = {}, {}
    for train_sid in (1, 2, 4, 5):  # every pairing the protocol can ask for
        tests = [(str(sid), seed0[sid].dataset) for sid in range(1, 7)
                 if train_scenario_for(sid) == train_sid]
        grid_cells, grid_models = evaluate_grid([(str(train_sid), seed0[train_sid].dataset)],
                                                tests, ALGOS, seed=0, semi_train="warmup")
        cells.update(((c.algorithm, int(c.test_scenario)), c) for c in grid_cells)
        models.update(((algo, train_sid), model) for algo, model in grid_models.items())
    return cells, models


def test_criterion_1_reference_attack_replication():
    started = time.monotonic()
    result = run_scenario(load_fixture("reference"), seed=1)
    elapsed = time.monotonic() - started

    stages = [s for _, s in result.attacker.state.stage_times]
    assert stages[:4] == ["S1_scan", "S2_rce", "S3_pe", "S4_impact"]

    discovered = result.attacker.state.discovered
    assert {p for p, _ in discovered[RTU_ADDRESS]} == {22, 23, 80}

    log = result.attacker.state.action_log
    rce_hits = [r for r in log if r.action == "rce_attempt" and "session" in r.outcome]
    assert rce_hits[0].outcome == "session user=www-data"
    checks = [r for r in log if r.action == "privilege_check"]
    assert checks[0].outcome == "whoami=www-data"
    pe = [r for r in log if r.action == "pe_attempt"]
    assert pe[0].outcome == "suid_binary: root"
    assert RTU_ADDRESS in result.attacker.state.rooted

    # MTU-held transformer values diverge from the true power flow over the
    # whole attack window
    impact_step = result.attacker.state.impact[0][1] // 1000
    window_steps = set()
    truth_at = dict(result.grid.history)
    for step, station, point, quantity, value, stale in result.mtu.history:
        if step <= impact_step or station != "rtu1":
            continue
        truth = truth_at.get(step)
        true_value = {
            "transformer_loading_percent": truth.transformer_loading_percent,
            "P_kW": truth.transformer_p_kw,
            "Q_kvar": truth.transformer_q_kvar,
        }[quantity]
        assert value != pytest.approx(true_value), f"no divergence at step {step}"
        window_steps.add(step)
    assert window_steps == set(range(impact_step + 1, result.final_step + 1))

    assert elapsed < 30.0, f"reference run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: reference attack replicated (S1..S4, ports 22/23/80, "
          f"www-data, SUID root, divergent window) in {elapsed:.1f}s")


def test_criterion_2_table1_balance_reproduction(scenario_runs):
    stats, _ = scenario_runs
    worst = 0.0
    for sid in range(1, 7):
        target = TABLE1_ATTACK_SHARES[sid]
        for seed in SEEDS:
            share = stats[(sid, seed)]["share"]
            delta = abs(share - target)
            worst = max(worst, delta)
            assert delta <= 3.0, f"scenario {sid} seed {seed}: {share:.2f}% vs {target}%"
    print(f"\nACCEPTANCE 2 PASS: all 6 scenarios within +/-3pp of Table 1 over 10 seeds "
          f"(worst deviation {worst:.2f}pp)")


def test_criterion_3_dos_effect(scenario_runs):
    stats, _ = scenario_runs
    for sid in (1, 2, 3):
        for seed in SEEDS:
            entry = stats[(sid, seed)]
            assert entry["impact_ms"] is not None, f"scenario {sid} seed {seed}: no impact"
            assert entry["rtu_after"] == 0, (
                f"scenario {sid} seed {seed}: {entry['rtu_after']} RTU packets after DoS"
            )
            assert entry["post_rate"] < entry["pre_rate"], (
                f"scenario {sid} seed {seed}: normal rate did not drop"
            )
    print("\nACCEPTANCE 3 PASS: scenarios 1-3 show zero RTU packets after DoS and a "
          "strictly lower normal-traffic rate")


def test_criterion_4_f1_orderings(ids_grid):
    cells, _ = ids_grid

    # (a) LOF beats IF by at least 0.05 on every scenario
    min_margin = min(cells[("lof", s)].f1 - cells[("iforest", s)].f1 for s in range(1, 7))
    if min_margin < 0.05:
        # margin is seed-sensitive: strict inequality must hold on >= 9 of 10 seeds
        wins = 0
        for seed in SEEDS:
            ok = True
            for sid in range(1, 7):
                test = run_scenario(load_fixture(sid), seed=seed).dataset
                train = run_scenario(load_fixture(train_scenario_for(sid)), seed=seed).dataset
                (lof, iforest), _ = evaluate_grid([("train", train)], [("test", test)],
                                                  ("lof", "iforest"), seed=seed)
                if not (lof.f1 > iforest.f1):
                    ok = False
                    break
            wins += ok
        assert wins >= 9, f"LOF > IF strict inequality held on only {wins}/10 seeds"
    else:
        assert min_margin >= 0.05

    # (b) RF and KNN nearly equal on scenarios 4-6, RF not meaningfully worse
    for sid in (4, 5, 6):
        rf, knn = cells[("rf", sid)].f1, cells[("knn", sid)].f1
        assert abs(rf - knn) <= 0.10, f"scenario {sid}: |RF-KNN| = {abs(rf - knn):.3f}"
        assert rf >= knn - 0.02, f"scenario {sid}: RF {rf:.3f} below KNN {knn:.3f} - 0.02"

    # (c) more balanced shares help: mean F1 higher on 4-6 than on 1-3
    mean_13 = np.mean([cells[(a, s)].f1 for a in ALGOS for s in (1, 2, 3)])
    mean_46 = np.mean([cells[(a, s)].f1 for a in ALGOS for s in (4, 5, 6)])
    assert mean_46 > mean_13, f"mean F1 {mean_46:.4f} (4-6) vs {mean_13:.4f} (1-3)"

    print(f"\nACCEPTANCE 4 PASS: LOF-IF margin >= {min_margin:.3f} on all scenarios; "
          f"RF~KNN on 4-6; mean F1 {mean_46:.4f} (4-6) > {mean_13:.4f} (1-3)")


def test_criterion_5_per_packet_blind_spot(scenario_runs, ids_grid):
    """Removing the RTU-originated records of the attack window (the packets a
    DoS makes disappear) must not change any prediction on the survivors."""
    _, seed0 = scenario_runs
    _, models = ids_grid
    checked = 0
    for sid in (1, 4):
        result = seed0[sid]
        impact_ms = result.attacker.state.impact[0][1]
        records = result.dataset.records
        kept = [r for r in records if not (r.src == RTU_ADDRESS and r.time_ms > impact_ms)]
        kept_index = [i for i, r in enumerate(records)
                      if not (r.src == RTU_ADDRESS and r.time_ms > impact_ms)]
        for algo in ALGOS:
            model = models[(algo, train_scenario_for(sid))]
            full = model.predict_records(records)
            filtered = model.predict_records(kept)
            assert filtered == [full[i] for i in kept_index]
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: per-record purity held across {checked} "
          "model/scenario combinations")


class TestCriterion6Oracles:
    started = None

    @classmethod
    def setup_class(cls):
        cls.started = time.monotonic()

    def test_knn_matches_brute_force_on_200_random_points(self):
        rng = np.random.default_rng(2024)
        X = rng.uniform(0, 1, size=(200, 4))
        y = (rng.random(200) < 0.5).astype(np.int64)
        queries = rng.uniform(0, 1, size=(200, 4))
        det = KnnDetector(k=5).fit(X, y)
        got = det.predict(queries).tolist()
        expected = []
        for q in queries:
            nearest = sorted(
                ((float(np.sum((X[i] - q) ** 2)), i) for i in range(len(X)))
            )[:5]
            votes = sum(int(y[i]) for _, i in nearest)
            expected.append(1 if votes * 2 >= 5 else 0)
        assert got == expected

    def test_lof_matches_direct_definition_within_1e9(self):
        from test_ids import lof_oracle

        rng = np.random.default_rng(77)
        for _ in range(3):
            n = int(rng.integers(30, 51))
            train = rng.uniform(0, 1, size=(n, 4))
            queries = rng.uniform(0, 1, size=(15, 4))
            det = LofDetector(k=6).fit(train)
            got = det.score(queries)
            expected = np.array(lof_oracle(train.tolist(), queries.tolist(), k=6))
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_two_bus_analytic_oracle_50_draws(self):
        rng = random.Random(99)
        for _ in range(50):
            r = rng.uniform(0.01, 0.2)
            x = rng.uniform(0.01, 0.2)
            p_kw = rng.uniform(5.0, 120.0)
            q_kvar = rng.uniform(0.0, 50.0)
            grid = GridModel(
                buses=(Bus("mv", 10.0), Bus("lv", 0.4), Bus("b2", 0.4)),
                lines=(Line("l1", "lv", "b2", r, x, 400.0),),
                transformer=Transformer("tx", "mv", "lv", 400.0, 0.002, 0.008),
                loads=(Load("ld", "b2", p_kw, q_kvar),),
                ders=(),
            )
            sol = Feeder(grid).solve()
            assert sol.converged
            s_base, z_base = 400.0, 0.4 * 0.4 * 1000.0 / 400.0
            rpu, xpu = r / z_base, x / z_base
            p, q = p_kw / s_base, q_kvar / s_base
            v1 = sol.bus_voltage_pu["lv"]
            b = 2.0 * (p * rpu + q * xpu) - v1 * v1
            c = (p * p + q * q) * (rpu * rpu + xpu * xpu)
            u = (-b + math.sqrt(b * b - 4 * c)) / 2.0
            assert abs(sol.bus_voltage_pu["b2"] - math.sqrt(u)) < 1e-6

    def test_power_balance_on_random_radial_grids(self):
        rng = random.Random(123)
        for _ in range(25):
            n_extra = rng.randint(0, 18)
            buses = [Bus("mv", 10.0), Bus("lv", 0.4)]
            lines, loads, ders = [], [], []
            attached = ["lv"]
            for i in range(n_extra):
                parent = rng.choice(attached)
                buses.append(Bus(f"b{i}", 0.4))
                lines.append(Line(f"l{i}", parent, f"b{i}",
                                  rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05), 400.0))
                attached.append(f"b{i}")
                if rng.random() < 0.8:
                    loads.append(Load(f"ld{i}", f"b{i}", rng.uniform(1, 15), rng.uniform(0, 6)))
                if rng.random() < 0.3:
                    ders.append(Der(f"der{i}", f"b{i}", rng.uniform(0, 8)))
            grid = GridModel(tuple(buses), tuple(lines),
                             Transformer("tx", "mv", "lv", 400.0, 0.002, 0.008),
                             tuple(loads), tuple(ders))
            assert check_power_balance(grid) < 1e-6

    @classmethod
    def teardown_class(cls):
        elapsed = time.monotonic() - cls.started
        assert elapsed < 60.0, f"oracle suites took {elapsed:.1f}s"
        print(f"\nACCEPTANCE 6 PASS: oracle suites (KNN, LOF, two-bus, power balance) "
              f"in {elapsed:.1f}s")


def test_criterion_7_byte_identical_artifacts(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"sim-{name}"
        assert cli_main(["simulate", "--scenario", "4", "--seed", "5",
                         "--out", str(out), "--trace", "--grid-csv"]) == 0
        runs.append(out)
    artifact_names = ["dataset.csv", "attacker_actions.csv", "mtu_measurements.csv",
                      "run_summary.json", "trace.csv", "grid_truth.csv"]
    for name in artifact_names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    assert cli_main(["dataset", "export", "--scenario", "reference", "--seed", "1",
                     "--out", str(train_csv)]) == 0
    assert cli_main(["dataset", "export", "--scenario", "reference", "--seed", "2",
                     "--out", str(test_csv)]) == 0
    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["ids", "eval", "--algo", "rf,knn,lof,iforest",
                         "--train", str(train_csv), "--test", str(test_csv),
                         "--out", str(out), "--seed", "9"]) == 0
        reports.append(out)
    for rel in ("eval_report.json", "f1_per_scenario.csv", "models/rf.json",
                "models/knn.json", "models/lof.json", "models/iforest.json"):
        assert (reports[0] / rel).read_bytes() == (reports[1] / rel).read_bytes(), rel
    print("\nACCEPTANCE 7 PASS: simulate and ids eval reruns produced byte-identical "
          "artifacts (trace, dataset, models, reports)")


def test_criterion_8_mirror_completeness_delay_law_and_loss():
    p_loss = 0.04
    n_packets = 10_000
    topology = IctTopology(
        nodes=[
            NetNode("h1", "host", "10.1.0.1"),
            NetNode("sw", "switch"),
            NetNode("h2", "host", "10.1.0.2"),
            NetNode("mon", "host", "10.1.0.9"),
        ],
        links=[
            NetLink("la", "h1", "sw", latency_ms=3, loss_probability=p_loss,
                    bandwidth_bps=2_000_000),
            NetLink("lb", "sw", "h2", latency_ms=7, loss_probability=0.0,
                    bandwidth_bps=1_000_000),
            NetLink("lc", "sw", "mon", latency_ms=1),
        ],
        span=SpanConfig("sw", "mon"),
    )
    engine = Engine()
    fabric = NetworkFabric(topology, engine, seed=20240)
    mirrored = []  # (payload n, time the SPAN switch handled the packet)
    fabric.mirror_sink = lambda packet: mirrored.append((packet.payload["n"], engine.now))

    class Sink:
        """Records each packet's arrival time by its payload ``n``."""

        def __init__(self):
            self.arrived_at = {}

        def on_packet(self, fab, packet):
            self.arrived_at[packet.payload["n"]] = fab.engine.now

    sink = Sink()
    fabric.register_app("h2", sink)
    fabric.register_app("h1", Sink())
    fabric.register_app("mon", Sink())

    rng = random.Random(5)
    lengths = [rng.randint(60, 1400) for _ in range(n_packets)]

    def driver(eng, kind, i):
        fabric.send_app_message("h1", "10.1.0.2", "OTHER", lengths[i], {"n": i})

    engine.register("drv", driver)
    for i in range(n_packets):
        engine.schedule(i * 2, "drv", "burst", i)
    engine.run(n_packets * 2 + 200_000)
    delivered = len(sink.arrived_at)
    losses = n_packets - delivered

    # mirror completeness: every packet the SPAN switch forwarded, exactly once
    assert fabric.mirrored_count == fabric.forwarded_by_switch["sw"]
    assert len(mirrored) == fabric.mirrored_count
    # the second hop is lossless: what the switch mirrored is what h2 got, in order
    assert [n for n, _ in mirrored] == list(sink.arrived_at)

    # delay law: replay the per-direction FIFO of both hops, la then lb, for
    # the delivered packets in send order, and check each packet's arrival at
    # the switch (its mirror time) and at h2. A lost packet never occupies the
    # link: the loss draw comes before the busy-until update.
    def serialization(link_id, length):
        bandwidth = fabric.links[link_id].bandwidth_bps
        return (length * 8 * 1000 + bandwidth - 1) // bandwidth

    at_switch = dict(mirrored)
    busy = {"la": 0, "lb": 0}
    for i in sorted(sink.arrived_at):
        t = i * 2
        for link_id, arrived_at in (("la", at_switch), ("lb", sink.arrived_at)):
            busy[link_id] = max(t, busy[link_id]) + serialization(link_id, lengths[i])
            t = busy[link_id] + fabric.links[link_id].latency_ms
            assert arrived_at[i] == t, (link_id, i)

    # loss statistics within three standard errors on the lossy link
    observed = losses / n_packets
    stderr = math.sqrt(p_loss * (1 - p_loss) / n_packets)
    assert abs(observed - p_loss) <= 3 * stderr
    print(f"\nACCEPTANCE 8 PASS: mirror count {fabric.mirrored_count} == forwarded, "
          f"delay law exact on {delivered} delivered packets over two hops, "
          f"loss {observed:.4f} vs {p_loss} within 3 SE")
