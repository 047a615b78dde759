"""Reproduction of every table and figure of the paper's evaluation.

Each module exposes a ``run(...)`` function returning a small result
object with the regenerated rows / series and a ``format_text()`` helper
that renders them the way the paper prints them.
:data:`repro.experiments.runner.EXPERIMENTS` is the one table of them
(name, report section, how it runs on a backend, its verdict);
``python -m repro.cli`` runs it.

| Paper artefact | Module |
|----------------|--------|
| Table 1 (ploc values)                   | :mod:`repro.experiments.table1_ploc` |
| Table 2 (per-hop filters)               | :mod:`repro.experiments.table2_filters` |
| Table 3 (trivial / flooding end points) | :mod:`repro.experiments.table3_endpoints` |
| Table 4 + Figure 8 (adaptive levels)    | :mod:`repro.experiments.table4_adaptive` |
| Figure 2 (naive roaming anomalies)      | :mod:`repro.experiments.fig2_naive_roaming` |
| Figure 3 (blackout periods)             | :mod:`repro.experiments.fig3_blackout` |
| Figure 5 (relocation walk-through)      | :mod:`repro.experiments.fig5_relocation` |
| Figure 9 (total message counts)         | :mod:`repro.experiments.fig9_message_counts` |

Beyond the paper, :mod:`repro.experiments.failure_schedule` exercises the
robustness layer (broker crash/restart, durable subscriptions, scheduled
partitions) that the failure-free paper model has no counterpart for.

The package imports none of them: importing one experiment does not
load the others.
"""
