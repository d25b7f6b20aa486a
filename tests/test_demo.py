import numpy as np
import pytest

from tlc.demo import make_scene, wiener_restore
from tlc.tensor import FeatureMap, WindowSpec


@pytest.mark.parametrize("local_noise", [False, True])
def test_wiener_restore_channels_match_single_channel_restores(local_noise):
    # A noiseless channel beside a noisy one: the pass-through is per channel.
    quiet = make_scene(5, noise="none")[1].data
    noisy = make_scene(5, noise="two-region")[1].data
    w = WindowSpec(32, 24)
    both = wiener_restore(FeatureMap(np.concatenate([quiet, noisy])), w, local_noise)
    stacked = np.concatenate(
        [wiener_restore(FeatureMap(ch), w, local_noise).data for ch in (quiet, noisy)]
    )
    assert np.array_equal(both.data, stacked)
    assert np.array_equal(both.data[0], quiet[0])
    assert not np.array_equal(both.data[1], noisy[0])
