import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# The benchmark's seeded input generators (``perfbench.inputs``).
sys.path.insert(1, str(Path(__file__).parent.parent))


def cart_source() -> str:
    return resources.files("burstmine.data").joinpath("cart.mir").read_text()
