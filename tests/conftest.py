import collections
import sys

import pytest
from hypothesis import HealthCheck, settings

from crossdiff import fields

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


class TransformLog(list):
    """Per transform call, the bytes of its nodal (real) side; .calls counts
    the calls of to_coeffs and of from_coeffs."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def clear(self):
        super().clear()
        self.calls.clear()


@pytest.fixture
def transform_bytes(monkeypatch):
    """Count the work of fields.to_coeffs and fields.from_coeffs at every
    crossdiff module attribute bound to them: the returned TransformLog
    collects, per call, the bytes of the nodal (real) side of the transform,
    and counts the calls of each."""
    real_to, real_from = fields.to_coeffs, fields.from_coeffs
    seen = TransformLog()

    def to_coeffs(values, grid):
        seen.append(values.nbytes)
        seen.calls["to_coeffs"] += 1
        return real_to(values, grid)

    def from_coeffs(coeffs, grid, out=None):
        result = real_from(coeffs, grid, out)
        seen.append(result.nbytes)
        seen.calls["from_coeffs"] += 1
        return result

    modules = [m for k, m in sys.modules.items() if k == "crossdiff" or k.startswith("crossdiff.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is real_to:
                monkeypatch.setattr(module, key, to_coeffs)
            elif value is real_from:
                monkeypatch.setattr(module, key, from_coeffs)
    return seen
