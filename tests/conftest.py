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


@pytest.fixture
def transform_bytes(monkeypatch):
    """Count the work of fields.to_coeffs and fields.from_coeffs at every
    crossdiff module attribute bound to them: the returned list collects,
    per call, the bytes of the nodal (real) side of the transform."""
    real_to, real_from = fields.to_coeffs, fields.from_coeffs
    seen = []

    def to_coeffs(values, grid):
        seen.append(values.nbytes)
        return real_to(values, grid)

    def from_coeffs(coeffs, grid, out=None):
        result = real_from(coeffs, grid, out)
        seen.append(result.nbytes)
        return result

    modules = [m for k, m in sys.modules.items() if k == "crossdiff" or k.startswith("crossdiff.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is real_to:
                monkeypatch.setattr(module, key, to_coeffs)
            elif value is real_from:
                monkeypatch.setattr(module, key, from_coeffs)
    return seen
