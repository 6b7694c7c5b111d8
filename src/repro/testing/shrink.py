"""Divergence shrinking and reproducer management.

When the oracle finds a fast/slow divergence, the raw spec is usually
noisy — dozens of instructions or events around the one interaction
that matters.  :func:`shrink` runs a greedy delta-debugging loop over
the generator's own ``shrink_candidates`` (each generator knows its
spec's structure), keeping any smaller spec that still diverges, until
a fixpoint or the execution budget runs out.

Minimal reproducers are written to ``tests/repros/`` as JSON;
``tests/test_repros.py`` replays every file there on each test run, so
a divergence that has been diagnosed and fixed can never silently
come back.
"""

import json
import os

from repro.testing.oracle import check_case


def spec_size(spec) -> int:
    """A crude structural size metric (number of JSON leaves)."""
    if isinstance(spec, dict):
        return sum(spec_size(v) for v in spec.values())
    if isinstance(spec, (list, tuple)):
        return sum(spec_size(v) for v in spec) + 1
    return 1


def shrink(generator, spec, max_executions: int = 150):
    """Greedy shrink: smallest still-diverging spec found.

    Returns ``(spec, report, executions_used)``.  ``generator`` is a
    module exposing ``execute`` and ``shrink_candidates`` (and
    optionally ``invariant`` — kept in force while shrinking so an
    invariant-only divergence shrinks against the same predicate that
    caught it — and ``TIERS``; see :func:`check_case`).
    """
    report = check_case(generator, spec)
    if not report.diverged:
        raise ValueError("spec does not diverge; nothing to shrink")
    executions = 1
    improved = True
    while improved and executions < max_executions:
        improved = False
        for candidate in generator.shrink_candidates(spec):
            if executions >= max_executions:
                break
            if spec_size(candidate) >= spec_size(spec):
                continue
            try:
                cand_report = check_case(generator, candidate)
            except Exception:
                # A candidate that crashes outright is not a valid
                # reproducer of *this* divergence; skip it.
                executions += 1
                continue
            executions += 1
            if cand_report.diverged:
                spec, report = candidate, cand_report
                improved = True
                break
    return spec, report, executions


def default_repro_dir() -> str:
    """``tests/repros`` relative to the repository root (best effort:
    walk up from this file)."""
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(6):
        candidate = os.path.join(here, "tests", "repros")
        if os.path.isdir(os.path.join(here, "tests")):
            return candidate
        here = os.path.dirname(here)
    return os.path.join(os.getcwd(), "tests", "repros")


def write_repro(directory, generator_name, seed, case_index, spec,
                report) -> str:
    """Persist a shrunk reproducer; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    name = f"repro_{generator_name}_seed{seed}_case{case_index}.json"
    path = os.path.join(directory, name)
    payload = {
        "generator": generator_name,
        "seed": seed,
        "case_index": case_index,
        "divergence": report.details[:20],
        "spec": spec,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_repros(directory):
    """Yield ``(path, payload)`` for every reproducer on disk."""
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        with open(path) as handle:
            yield path, json.load(handle)
