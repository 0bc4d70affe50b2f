"""Experiment harness: regenerates every table and figure of the paper.

Every :data:`TARGETS` module implements the point contract —
``points(quick)``, ``run_point(point, quick)``, ``assemble(values,
quick)`` — and :func:`repro.bench.parallel.run_campaign` runs it into
:class:`~repro.bench.report.FigureResult` panels (series + rows +
paper-expected anchors); ``python -m repro.bench <target>`` prints them.

``quick=True`` (default, used by pytest-benchmark) trims op counts and
sweep points to keep wall-clock small; ``--full`` sweeps the paper's exact
x-axes.  Neither changes the model — only measurement duration.
"""

from repro.bench.report import FigureResult, Series

__all__ = ["FigureResult", "Series", "TARGETS"]

#: Registry of bench targets: name -> module path (a point-contract module).
TARGETS = {
    "fig1": "repro.bench.fig01_throttling",
    "fig3": "repro.bench.fig03_batch_payload",
    "fig4": "repro.bench.fig04_batch_size",
    "fig5": "repro.bench.fig05_threads",
    "fig6": "repro.bench.fig06_rand_seq",
    "fig8": "repro.bench.fig08_consolidation",
    "fig10": "repro.bench.fig10_atomics",
    "fig12": "repro.bench.fig12_hashtable",
    "fig13": "repro.bench.fig13_reorder",
    "fig15": "repro.bench.fig15_shuffle",
    "fig16": "repro.bench.fig16_join",
    "fig17": "repro.bench.fig17_join_scale",
    "fig18": "repro.bench.fig18_cpu",
    "fig19": "repro.bench.fig19_dlog",
    "table1": "repro.bench.table1_vector_io",
    "table2": "repro.bench.table2_mlc",
    "table3": "repro.bench.table3_numa",
    "summary": "repro.bench.summary",
    # Extensions beyond the paper's evaluation.
    "ext1": "repro.bench.ext1_read_mix",
    "ext2": "repro.bench.ext2_port_scaling",
    "ext3": "repro.bench.ext3_stragglers",
    "ext4": "repro.bench.ext4_one_vs_two_sided",
    "ext5": "repro.bench.ext5_replication",
    "ext6_multitenant": "repro.bench.ext6_multitenant",
    "ext7_fault_recovery": "repro.bench.ext7_fault_recovery",
    "ext8_txn": "repro.bench.ext8_txn",
    "ext9_fabric_scale": "repro.bench.ext9_fabric_scale",
    "ext10_open_loop": "repro.bench.ext10_open_loop",
    "breakdown": "repro.bench.breakdown",
    "scorecard": "repro.bench.scorecard",
}
