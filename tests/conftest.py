import sys
from pathlib import Path

import numpy as np
import pytest

from alignsim.registry import SCHEMES

sys.path.insert(0, str(Path(__file__).parent))

#: What a registry scheme instance may hold of its own: its cached properties.
_INSTANCE_KEYS = {"derive_plan", "_symbol_rows", "_interference_index"}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def _registry_schemes_stay_clean():
    # an attribute patched onto a shared instance outlives the patch's undo
    # (monkeypatch restores a bound method into the instance's __dict__), and
    # would shadow the class for every later test
    yield
    for scheme_id, scheme in SCHEMES.items():
        extra = set(vars(scheme)) - _INSTANCE_KEYS
        assert not extra, f"registry scheme {scheme_id} holds {sorted(extra)} after the test"
