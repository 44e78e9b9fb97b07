"""Experiment harness: one driver per paper figure/table, plus reporting.

Each ``figures.fig*`` function runs a complete (optionally scaled-down)
version of the corresponding experiment and returns a result object the
benchmarks print and assert on.  ``report`` renders ASCII tables with
paper-vs-measured columns; ``experiment`` holds shared runners.  The
package re-exports nothing: the CLI needs only ``report``, and
``experiment`` loads every baseline tuner.
"""
