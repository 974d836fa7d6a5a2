"""Shared fixtures for the serving test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph import add_edges
from repro.observability.metrics import get_registry, reset_registry
from repro.resilience.faults import FaultyOperator
from repro.throttle.vector import ThrottleVector


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


@pytest.fixture(scope="session")
def tiny():
    return load_dataset("tiny")


@pytest.fixture(scope="session")
def tiny_kappa(tiny) -> ThrottleVector:
    kappa = np.zeros(tiny.assignment.n_sources)
    kappa[np.asarray(tiny.spam_sources, dtype=np.int64)] = 1.0
    return ThrottleVector(kappa)


@pytest.fixture()
def evolve():
    """Deterministic graph-evolution step: add 4 random edges per call."""
    gen = np.random.default_rng(0x5EED)

    def _evolve(graph):
        src = gen.integers(0, graph.n_nodes, size=4)
        dst = gen.integers(0, graph.n_nodes, size=4)
        return add_edges(graph, src.tolist(), dst.tolist())

    return _evolve


def counter_value(name: str, **labels: str) -> float:
    """Current value of one counter child (0 when absent)."""
    for family in get_registry().families():
        if family.name == name:
            for child in family.children():
                if child.label_values == labels:
                    return child.value
    return 0.0


def gauge_value(name: str) -> float | None:
    """Current value of an unlabelled gauge (None when absent)."""
    for family in get_registry().families():
        if family.name == name:
            for child in family.children():
                return child.value
    return None


def crash_first_matvec(operator) -> FaultyOperator:
    """``operator_wrap`` hook: the update's solve dies in its first matvec."""
    return FaultyOperator(operator, fail_at_call=1)
