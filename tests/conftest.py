import pytest

from polycanon.experiments import ExperimentSpec, run


@pytest.fixture(scope="session")
def reports():
    """Run each experiment at most once per test session, on demand."""
    cache = {}

    def get(name, seed=42):
        if (name, seed) not in cache:
            cache[name, seed] = run(ExperimentSpec(name, seed))
        return cache[name, seed]

    return get


@pytest.fixture(scope="session")
def canonical():
    from polycanon.experiments._common import canonical_piece
    return canonical_piece(42)
