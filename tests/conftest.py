import pytest

import c2f.autodiff as ad
from zoo import build_zoo, zoo_cache_dir


@pytest.fixture(scope="session")
def toy_zoo():
    """The trained four-lambda model zoo (built once, cached on disk)."""
    return build_zoo(zoo_cache_dir())


@pytest.fixture
def workers(monkeypatch):
    """use(n) runs the conv engine's and gdn_'s bands as on a host of n
    CPUs whose OpenBLAS runs one thread, over a pool of the test's own,
    shut down when n changes and after the test."""
    monkeypatch.setattr(ad, "_pool", None)
    monkeypatch.setattr(ad, "_openblas_threads", lambda: 1)

    def use(n):
        if ad._pool is not None:
            ad._pool.shutdown()
        monkeypatch.setattr(ad, "_CPUS", n)
        monkeypatch.setattr(ad, "_pool", None)

    yield use
    if ad._pool is not None:
        ad._pool.shutdown()
