import random
import time

import pytest

from camshift import cam1d, camzd
from slp_oracles import word


def random_expression(builder, rng, depth=3, max_length=500_000):
    """Random compressed word: atoms at the bottom, repeated concatenations above."""
    if depth == 0 or rng.random() < 0.3:
        text = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        return word(builder, text)
    parts = []
    for _ in range(rng.randint(1, 4)):
        child = random_expression(builder, rng, depth - 1, max_length)
        rep = rng.choice([1, 1, 2, 3, 7, 20, 150])
        if child.length * rep > max_length:
            rep = 1
        parts.append((child, rep))
    return builder.concat(parts)


def random_pattern(rng, text, max_len):
    """Half the time a real factor of the text, half the time a random word."""
    size = rng.randint(1, max_len)
    if rng.random() < 0.5 and len(text) >= size:
        start = rng.randint(0, len(text) - size)
        return text[start : start + size]
    return "".join(rng.choice("01") for _ in range(size))


@pytest.fixture(scope="session")
def family4_timed():
    start = time.time()
    family = cam1d.build_family(levels=4)
    return family, time.time() - start


@pytest.fixture(scope="session")
def family4(family4_timed):
    return family4_timed[0]


@pytest.fixture(scope="session")
def family3():
    return cam1d.build_family(levels=3)


@pytest.fixture(scope="session")
def family_d2():
    return camzd.build_family_d(dim=2, levels=2)


@pytest.fixture(scope="session")
def family_d2_structural3():
    """Certified level 2 plus a structural (uncertified) level 3 at the
    smallest parameter that satisfies the postcard margin."""
    family = camzd.build_family_d(dim=2, levels=2)
    camzd.build_level_d(family, 12)
    return family


@pytest.fixture()
def rng():
    return random.Random(20260810)
