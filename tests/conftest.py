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
    CPUs whose OpenBLAS runs one thread."""
    monkeypatch.setattr(ad, "_openblas_threads", lambda: 1)

    def use(n):
        monkeypatch.setattr(ad, "_CPUS", n)

    return use
