"""The traced benchmark pass (bench/layers.py) replaces flowrl functions
at the module or class attributes their callers look up, reading each
from owner.__dict__; every such attribute must stay bound there, or only
the traced pass breaks."""
import importlib.util
import os

LAYERS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "layers.py"
)


def test_every_traced_site_is_bound_on_its_owner():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        "%s.%s (span %s)" % (owner.__name__, attr, span)
        for owner, attr, span in layers.sites()
        if attr not in owner.__dict__
    ]
    assert missing == []
