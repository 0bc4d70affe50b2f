"""Extension 8 — transactional dataplane: one-sided OCC vs RPC.

The transactional layer (:mod:`repro.apps.txn`) commits multi-key
read-write transactions against the disaggregated store two ways:

* **occ** — Storm-style one-sided OCC: versioned reads, CAS
  validate-and-lock on per-key version words, one-sided write-back.
  Zero back-end CPU; conflicts cost aborted attempts plus backoff.
* **rpc** — the two-sided baseline: the whole transaction ships to a
  back-end CPU thread that executes it atomically.  Never aborts; costs
  a server core and a full round trip (plus per-key service CPU).

Two sweeps, both closed-loop over 6 client threads on 3 machines:

(a) **contention** — abort rate and committed-transaction throughput vs
    Zipf theta at fixed transaction size.  OCC's abort rate climbs with
    skew while the RPC baseline stays abort-free; the crossover is the
    paper's one-sided-vs-two-sided trade (Section IV-B) restated for
    transactions.
(b) **size** — throughput vs keys-per-transaction at theta = 0.99.  OCC
    pays per key twice (read + lock/write-back) and aborts more as the
    footprint grows; RPC amortizes its round trip over more keys.

Deterministic under the campaign seed; every point builds a fresh rig.
"""

from __future__ import annotations

from repro import build
from repro.apps.txn import RpcTxnServer, TxnClient, TxnConfig, TxnStore
from repro.bench.report import FigureResult
from repro.bench.runner import bench_seed
from repro.sim import AllOf, spawn_rngs
from repro.workloads.zipf import ZipfGenerator

__all__ = ["points", "run_point", "assemble"]

N_KEYS = 128
N_CLIENTS = 6          # two per client machine (machines 1..3)
THETAS = [0.5, 0.9, 0.99, 1.2]
SIZES = [1, 2, 4, 8]
BASE_TXN_KEYS = 4      # transaction footprint for the theta sweep
SIZE_THETA = 0.99      # skew for the size sweep


def _key_sets(zipf: ZipfGenerator, n_txns: int, txn_keys: int) -> list:
    """Pre-sample each transaction's (sorted, unique) key set."""
    sets = []
    for _ in range(n_txns):
        keys: set[int] = set()
        while len(keys) < txn_keys:
            keys.add(zipf.one())
        sets.append(sorted(keys))
    return sets


def _run_occ(theta: float, txn_keys: int, txns_per_client: int) -> dict:
    sim, cluster, ctx = build(machines=4)
    store = TxnStore(ctx, machine=0, n_keys=N_KEYS)
    rngs = spawn_rngs(bench_seed(8), N_CLIENTS)
    clients = [
        TxnClient(ctx, store, machine=1 + i % 3, socket=i // 3,
                  client_id=i, name=f"c{i}", rng=rngs[i],
                  config=TxnConfig(max_attempts=64))
        for i in range(N_CLIENTS)
    ]

    def driver(c, rng):
        zipf = ZipfGenerator(N_KEYS, theta, rng)
        sets = _key_sets(zipf, txns_per_client, txn_keys)
        n_write = max(1, txn_keys // 2)
        for i, keys in enumerate(sets):
            def body(txn):
                for k in keys:
                    yield from c.read(txn, k)
                for k in keys[:n_write]:
                    c.write(txn, k, f"{c.name}.t{i}".encode())
            yield from c.execute(body)

    for c, rng in zip(clients, rngs):
        sim.process(driver(c, rng), name=f"drv.{c.name}")
    sim.run()
    commits = sum(c.commits for c in clients)
    aborts = sum(c.aborts for c in clients)
    return {
        "mode": "occ",
        "commits": commits,
        "aborts": aborts,
        "gave_up": sum(c.gave_up for c in clients),
        "abort_rate": aborts / (commits + aborts) if commits + aborts else 0.0,
        "ktxn_per_s": commits / (sim.now / 1e6) if sim.now else 0.0,
    }


def _run_rpc(theta: float, txn_keys: int, txns_per_client: int) -> dict:
    sim, cluster, ctx = build(machines=4)
    table = RpcTxnServer(ctx, machine=0, n_servers=2)
    rngs = spawn_rngs(bench_seed(8), N_CLIENTS)
    clients = [table.connect(1 + i % 3, i // 3) for i in range(N_CLIENTS)]

    def driver(c, rng, name):
        zipf = ZipfGenerator(N_KEYS, theta, rng)
        sets = _key_sets(zipf, txns_per_client, txn_keys)
        n_write = max(1, txn_keys // 2)
        for i, keys in enumerate(sets):
            writes = [(k, f"{name}.t{i}".encode()) for k in keys[:n_write]]
            yield from c.txn(keys, writes)

    procs = [sim.process(driver(c, rng, f"c{i}"), name=f"drv.c{i}")
             for i, (c, rng) in enumerate(zip(clients, rngs))]
    # The server threads idle-wait forever; stop at the last commit.
    sim.run(until=AllOf(sim, procs))
    span_ns = sim.now
    commits = sum(c.commits for c in clients)
    table.stop()
    return {
        "mode": "rpc",
        "commits": commits,
        "aborts": 0,
        "gave_up": 0,
        "abort_rate": 0.0,
        "ktxn_per_s": commits / (span_ns / 1e6) if span_ns else 0.0,
    }


def points(quick: bool = True) -> list:
    pts = []
    for mode in ("occ", "rpc"):
        pts.extend({"probe": "theta", "theta": t, "mode": mode}
                   for t in THETAS)
        pts.extend({"probe": "size", "txn_keys": s, "mode": mode}
                   for s in SIZES)
    return pts


def run_point(point: dict, quick: bool = True):
    txns = 12 if quick else 60
    if point["probe"] == "theta":
        theta, txn_keys = point["theta"], BASE_TXN_KEYS
    else:
        theta, txn_keys = SIZE_THETA, point["txn_keys"]
    runner = _run_occ if point["mode"] == "occ" else _run_rpc
    return runner(theta, txn_keys, txns)


def assemble(values: list, quick: bool = True) -> FigureResult:
    n_t, n_s = len(THETAS), len(SIZES)
    occ_theta = values[0:n_t]
    occ_size = values[n_t:n_t + n_s]
    rpc_theta = values[n_t + n_s:2 * n_t + n_s]
    rpc_size = values[2 * n_t + n_s:]

    fig = FigureResult(
        name="Ext 8",
        title="Transactions over the disaggregated store: one-sided OCC "
              "vs RPC baseline — extension",
        x_label="zipf theta (4-key txns)",
        x_values=THETAS,
        y_label="committed ktxn/s / abort rate")
    fig.add("occ committed ktxn/s",
            [round(v["ktxn_per_s"], 3) for v in occ_theta])
    fig.add("rpc committed ktxn/s",
            [round(v["ktxn_per_s"], 3) for v in rpc_theta])
    fig.add("occ abort rate",
            [round(v["abort_rate"], 4) for v in occ_theta])

    fig.check(
        "(a) OCC aborts climb with skew; RPC never aborts",
        f"occ abort rate {[round(v['abort_rate'], 3) for v in occ_theta]}, "
        f"rpc aborts {[v['aborts'] for v in rpc_theta]}",
        "occ abort rate grows with theta; rpc aborts all zero")
    fig.check(
        "(a) every transaction eventually commits (no give-ups)",
        f"occ gave_up {[v['gave_up'] for v in occ_theta]} across thetas",
        "bounded retries with backoff suffice at this contention")
    fig.check(
        "(b) throughput falls as the transaction footprint grows",
        "occ "
        f"{[round(v['ktxn_per_s'], 1) for v in occ_size]} vs rpc "
        f"{[round(v['ktxn_per_s'], 1) for v in rpc_size]} ktxn/s "
        f"for {SIZES}-key txns at theta={SIZE_THETA}",
        "both modes decrease monotonically in txn size")
    fig.notes.append(
        f"{N_CLIENTS} closed-loop clients on 3 machines, {N_KEYS} keys, "
        "writes to half of each txn's key set; occ = versioned read + "
        "CAS lock/validate + one-sided write-back, rpc = whole-txn "
        "shipping to 2 server threads.")
    fig.notes.append(
        "size sweep abort rates (occ): "
        + str([round(v["abort_rate"], 3) for v in occ_size]))
    return fig
