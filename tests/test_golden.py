"""Golden digests that pin simulated behaviour byte for byte.

Each case runs one policy kind (ynp and cnp with n=3) on 30 HI sessions
of the `conftest.sim_config` swarm at seed 0, with no lingering and
with 30% of departing leechers lingering as seeds. One more case runs
dispersion-greedy on 400 sessions with 30% lingering, the size where
superseded transfer events and lingering receivers are most frequent;
it takes about 10 s. Three id-order cases run the 30 sessions with their
ids relabelled so that id order is neither join order nor creation
order (see `relabelled_workload`): every tie broken by peer id, and
every walk over peers, shows in their digests. The digest is the
sha256 of the QoS report JSON followed by the newline-delimited event
log. Refactors and speedups must leave every digest unchanged. A change
that is meant to alter simulated behaviour regenerates the table with

    PYTHONPATH=src:tests python tests/test_golden.py

and says why in CHANGES.md.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
from conftest import hi_workload, sim_config
from swarmsim.policies import PolicyKind
from swarmsim.workload import Workload, generate_workload

SESSIONS = 30
LARGE_SESSIONS = 400
SEED = 0
LINGER_FRACTIONS = (0.0, 0.3)

GOLDEN = {
    ("dispersiongreedy", 0.0, 30): "e68780623fea4043d7b6442c419e0071cd781c54c23d518c6a7df31d7e92b113",
    ("dispersiongreedy", 0.3, 30): "fa8d37554c061ed44ce0ad6f40909786180967bd05800742ffb0ae3e3e273904",
    ("titfortat", 0.0, 30): "6727d61902252101e65b8d9dfd939c30f588d864732f61abd510472384d2cdb0",
    ("titfortat", 0.3, 30): "7d40f68586dc1a34a779d1414ad0ff6ca2f6eb623ea67a02f8f170dac53c5633",
    ("random", 0.0, 30): "b456db8cff1e6d58f71d07c047916e803215bc3b795c86fecf3bbfb435b38aa9",
    ("random", 0.3, 30): "1bd96d7aa4579eb7508bc703cc2f5e1e990329bb59a2a50da175e4e6601ac67f",
    ("llp", 0.0, 30): "c2370ace65831a8aff2984ffd03ecdefd993152d14472f7839ca06e029d5d2ac",
    ("llp", 0.3, 30): "8dbdb72a17882b9ec729203f1d845853aea59990c8d32e0ef417b58898b5f9a8",
    ("lrp", 0.0, 30): "21ff69564d5d9de43cc1d7543e1c000ea18591511efc6b35d48ef7780d5b49c3",
    ("lrp", 0.3, 30): "9ac21af320fe47978962fa12dbfe3546a129fb1d2d0979fef58e73baff431924",
    ("trackerclosest", 0.0, 30): "7ac28e11e0e6847c154372914eae6f49d1eb2eb9896dfe9d63fde0e63f6decc0",
    ("trackerclosest", 0.3, 30): "c28eee0ddb08d284fe0eec0668183ea0717370831c95f3932aea26f8400633b9",
    ("ynp", 0.0, 30): "a0b03d01f725b81bee742226af5c6ddfc687c67d5e316907f902c80aebe9e28f",
    ("ynp", 0.3, 30): "fba9dfe61fd44e2e67a9b818950cff4a620ba84e536a315cd052c7876b0b5d20",
    ("cnp", 0.0, 30): "632d896e6ed2de22e17ea8b0160ec039fcccbef333d6620b80b0135577278191",
    ("cnp", 0.3, 30): "236edbb4c40eaf7e37b323c44e776581de5aea977e6b5a9560e3ee61fbdccc3a",
    ("givetoget", 0.0, 30): "71274ba96c763da2a64fdcb2b1f528083dfd21a8e30ddebe338dd69dd42c43fd",
    ("givetoget", 0.3, 30): "d062f0baf934fe92635912517c1a3aeb242b4ac975c92a68ccd0ea9d14069a11",
    ("perpieceoptimistic", 0.0, 30): "d792f189ab5c83a0934c5999a863b5652e45dc34bc68c497ba830b649b98a219",
    ("perpieceoptimistic", 0.3, 30): "b66d4b7797803e697da6c4a7565aedd354e097fc5bc94af617123027d4ef13f9",
    ("dispersiongreedy", 0.3, 400): "cc953203ca42f22c067dc2d18a1337b9f32ee899726b0c19108e1d3d33b8a13c",
}


def digest(policy: str, linger: float, sessions: int = SESSIONS) -> str:
    n = 3 if policy in (PolicyKind.YNP.value, PolicyKind.CNP.value) else None
    cfg = sim_config(policy, seed=SEED, n=n, sessions=sessions, linger_as_seed_fraction=linger)
    return conftest.digest(cfg)


ID_ORDER_GOLDEN = {
    ("titfortat", 0.3): "737c6bef766f6622b2044d593848b1512ee39a1494959e54d63de2577723ff36",
    ("llp", 0.3): "9459f3a38fa6899092e1a8ac42b1728d15f1c834b250a2801520dc651ca966ac",
    ("dispersiongreedy", 0.3): "e3c93c580a5d9a136c081a23f732f8efc6418f35afcc279d42e46aa7b9196f07",
}


def relabelled_workload() -> Workload:
    """The 30 HI sessions of `conftest.hi_workload`, with the session that
    joins i-th renamed `("a", "c", "x")[i % 3] + str(7 * i % 30)`.

    The ids are not in join order, are not zero-padded, and fall on both
    sides of `seed00`.
    """
    wl = generate_workload(hi_workload(SESSIONS))
    sessions = [
        dataclasses.replace(s, client_id=("a", "c", "x")[i % 3] + str(7 * i % 30))
        for i, s in enumerate(wl.sessions)
    ]
    return dataclasses.replace(wl, sessions=sessions)


def id_order_digest(policy: str, linger: float) -> str:
    workload = relabelled_workload()
    cfg = sim_config(policy, seed=SEED, workload=workload, linger_as_seed_fraction=linger)
    return conftest.digest(cfg)


CASES = [(kind.value, linger, SESSIONS) for kind in PolicyKind for linger in LINGER_FRACTIONS]
CASES.append((PolicyKind.DISPERSION_GREEDY.value, 0.3, LARGE_SESSIONS))


def case_id(case: tuple) -> str:
    policy, linger, sessions = case
    return f"{policy}-{linger}" + ("" if sessions == SESSIONS else f"-{sessions}")


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_digest_unchanged(case):
    assert digest(*case) == GOLDEN[case]


def test_relabelled_ids_out_of_join_order():
    ids = [s.client_id for s in relabelled_workload().sessions]
    assert len(set(ids)) == len(ids) == SESSIONS
    assert sorted(ids) != ids
    assert min(ids) < "seed00" < max(ids)


@pytest.mark.parametrize("case", ID_ORDER_GOLDEN, ids=lambda case: f"{case[0]}-{case[1]}")
def test_id_order_digest_unchanged(case):
    assert id_order_digest(*case) == ID_ORDER_GOLDEN[case]


def test_digest_independent_of_hash_seed():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    code = "from test_golden import digest; print(digest('llp', 0.3))"
    digests = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        digests.append(out.stdout.strip())
    assert digests == [GOLDEN[("llp", 0.3, SESSIONS)]] * 2


if __name__ == "__main__":
    for policy, linger, sessions in CASES:
        print(f'    ("{policy}", {linger}, {sessions}): "{digest(policy, linger, sessions)}",')
    for policy, linger in ID_ORDER_GOLDEN:
        print(f'    ("{policy}", {linger}): "{id_order_digest(policy, linger)}",')
