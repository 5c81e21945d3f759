"""The scenario codec pins every digest.

A scenario's digest is stamped into each result's provenance and names
its sweep and checkpoint journals, so the codec -- the one parser
(``Scenario.from_dict``) and the one encoder (``Scenario.to_dict``) --
must not move it.  The literals are the digests the earlier, per-block
codec gave every checked-in scenario and the 25 scenarios the CI fuzz
smoke generates (``repro fuzz --seed 0 --budget 25``); a change to
them is a change to the scenario format.
"""

from pathlib import Path

import pytest

from repro.api import Scenario, load_scenarios
from repro.config import spawn_rng
from repro.fuzz.grammar import generate_scenario

pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[2]

#: (file, scenario name) -> digest, for every checked-in scenario.
CHECKED_IN = {
    ("examples/scenarios/adversarial/burst_storm.yaml",
     "adversarial-burst-storm"):
        "eba04e879d810a562047340768b73cfa7efc1b1745ccda5e427e0088639b8bbb",
    ("examples/scenarios/adversarial/crash_mid_segment.yaml",
     "adversarial-crash-mid-segment"):
        "866085cd4bc13c700640c0fe5620f4da1a4f085ef0c3ba7987940e28b15d5a39",
    ("examples/scenarios/adversarial/multi_region_diurnal.yaml",
     "adversarial-multi-region-diurnal"):
        "b1becabaaf2fdd9993e41fb136cf3db43ca8ba7998e73c9cdf3965a17ff861a8",
    ("examples/scenarios/adversarial/priority_tiers.yaml",
     "adversarial-priority-tiers"):
        "461b2a9aeadc039521bb8df9dae630d0ef00f24afd048078b653d23992d5295d",
    ("examples/scenarios/showcase.yaml",
     "figure-ve-idle"):
        "c166bbb2cffa06b928a7fca5943caf2b3cd5fb049013e42434e1424cf3c84f20",
    ("examples/scenarios/showcase.yaml",
     "open-loop-mnist-dlrm"):
        "138d4d89b0717208737f372c195474f01cd3755587d005ff13cd9c28d5d70045",
    ("examples/scenarios/showcase.yaml",
     "serving-bench-pair"):
        "0c2cf1b734152e6d7486d1a4685efdf98a2de9e5efe38b19f1b0e1e0b0e75d0a",
    ("examples/scenarios/showcase.yaml",
     "cluster-churn-demo"):
        "cf5f329541e6729bc3522fd55f96973f16c91cd3cf9b1ffade04f93b1be9f4d1",
    ("examples/scenarios/showcase.yaml",
     "cluster-autoscale-demo"):
        "612075a10af01c8a0a301062b33358cdd7e86ffe51bb71a6cc2bf95ac2e78f4d",
    ("examples/scenarios/showcase.yaml",
     "cluster-virt-demo"):
        "c97a09b8e4ed522a861a04d967c2f1f22e463bcd4ce21e8698cab1feebe11c99",
    ("examples/scenarios/showcase.yaml",
     "llm-kv-demo"):
        "297ef8315fed125ff3bc47e65594d7c2c1e63f9041988dce909412d203c9bcb9",
    ("examples/scenarios/smoke.yaml",
     "smoke-open-loop"):
        "8cd1c7ec18fe5f31a6554a658f44a0650b17973c2add22f98d4cf942cd4d574e",
    ("perfbench/scenarios/serve_session.yaml",
     "perfbench-serve-session"):
        "354fdb0df6c261a742a3d5d2c70859699b5b4e53a8b76f112fffc8bf629cd560",
}

#: Digest of ``generate_scenario(spawn_rng(0, "fuzz", i), index=i)``.
FUZZ_SMOKE = (
    "0981b750fe05b3e83698a3e89cfb562a20045756b3b011e6e388b7ffefd53d8e",
    "1e3fbde84f2e1c992292c36fd1c9fef78504058e7ea2b81c999fad410d230385",
    "6c9bfe8ef406fc47cb3dd64df723b758cb0c1d1c49886d79fc880f70be3f31a3",
    "ff31e3062ac48ab84020bda80bc9312164efacdc38502ef53f4bbd6106433c7b",
    "cb8d12a6f4fd01168c7c2a269415f87db044d07a7cae5feeed4b36ed76ba9926",
    "c784578bdcff42a646afc7d036796ad1628dd47260cb839a6c2b7335880b7123",
    "37f1ad0e1f569d206fb286909cc18d02e7df6eafa34662ce7e86c46c4faf805a",
    "f2ab08dd95c35f8a7a8fb2c46f4951434201a380adb926813d0275bc23de2a3b",
    "950c4340ddc46eb37246b7abcd8bfe1c2ac620e0f131c1e601a38bea4658669e",
    "cd29618bc955484126ddc1488ebf625c5d55e4317bf09fcc9c637b3d163cffa7",
    "133c6022ae65c01daa4e2fa0d88ea363ad524cfbe130729efbbdacade54aeac9",
    "10777c00a6b4fca5ab3e084330ef1e1b382a66240584bae283ab888cebe65f56",
    "0d85b8239623f478c89b2c0b7917226025805c28523e62f4d028d02d64d4ed26",
    "b3af6665258827a00be57140fa5a04b7020bf2dc8a0bdb5d27d9b8ff7315f58a",
    "b431d567d12491a6f9444e47a2b3b71e8d4a3ab4dc27a5c7a7e4f15b4f69d933",
    "d9ba1973b5f0ded90e203951991e9e35a14da8eab8d836c0233a61a5b09ed0d6",
    "4be89e199be86941c5aa79d46ef5b22edd0ebe4d1bd26dc2305fcb36d82615cf",
    "99fb3481eb109f052ac15fc1f08363b82c747a7718c88a213da06f41177825bc",
    "15bd82ac9eb39d343bb003fd13e81e02a757e10ea8d6e8eb703f8c94c5c7923f",
    "297c810639fd33a3220134d47ada93dab7efc88dafe1b5deb74e1944a1ad6ab7",
    "166f24f4d9010ccee8521a0c5613bf52b0d7fe95d08b14e88ca90ab9c6faeac8",
    "804a31d73c14cec33ffb53fa2274e855e9b67068fd33cab865a7d94d412d27cb",
    "ae7a2f55d5b0b11dc341e442e14991637745d6af1f39119cbc718c7fd0f9b5a3",
    "4010cea994f35281478fc9b65fa1e47e4f4450a18e193e1cdca94a2778be1f4f",
    "910a2587be9da9ef6947f6a00fe23812cb777515642b8bf843fcfaeafee40107",
)

def _assert_round_trips(sc: Scenario) -> None:
    assert Scenario.from_dict(sc.to_dict()) == sc
    assert Scenario.from_yaml(sc.to_yaml()) == sc


def test_every_checked_in_scenario_is_pinned():
    paths = sorted((ROOT / "examples" / "scenarios").glob("**/*.yaml"))
    paths.append(ROOT / "perfbench" / "scenarios" / "serve_session.yaml")
    found = {
        (path.relative_to(ROOT).as_posix(), sc.name)
        for path in paths
        for sc in load_scenarios(path)
    }
    assert found == set(CHECKED_IN)


@pytest.mark.parametrize(
    "path, name", CHECKED_IN, ids=[name for _, name in CHECKED_IN]
)
def test_checked_in_digest_is_pinned(path, name):
    (sc,) = [s for s in load_scenarios(ROOT / path) if s.name == name]
    assert sc.digest() == CHECKED_IN[(path, name)]
    _assert_round_trips(sc)


@pytest.mark.parametrize("index", range(len(FUZZ_SMOKE)))
def test_fuzz_smoke_digest_is_pinned(index):
    sc = generate_scenario(spawn_rng(0, "fuzz", index), index=index)
    assert sc.digest() == FUZZ_SMOKE[index]
    _assert_round_trips(sc)
