import re
import struct
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qtpart import dataset, features
from qtpart.cli import main
from qtpart.codec import (NS, QT, SPLIT_BITS, CodecConfig, SearchState, exhaustive_search,
                          lambda_of_qp)
from qtpart.dataset import (CuRecord, DatasetError, Trajectory, balance, balance_trajectories,
                            collect_records,
                            collect_trajectories, load_records,
                            load_trajectories, normalize_targets,
                            save_records, save_trajectories)
from qtpart.features import LAYOUT_HASH, build_vector, descriptor_key
from qtpart.frame_io import LumaFrame, tile_ctus

from helpers import count_patch_calls, natural_frame

QPS4 = (22, 27, 32, 37)


def _rec(seed=0, size=32, qp=32, ns=2.0, qt=1.5):
    rng = np.random.default_rng(seed)
    return CuRecord(features=rng.random(115).astype(np.float32),
                    cu_size=size, qp=qp, ns_j_pp=ns, qt_j_pp=qt)


# -- record and trajectory invariants ------------------------------------


def test_record_validates_costs_and_label():
    with pytest.raises(DatasetError, match="positive"):
        _rec(ns=0.0)
    assert _rec(ns=2.0, qt=1.5).optimal == QT
    assert _rec(ns=1.0, qt=2.0).optimal == NS
    assert _rec(ns=1.0, qt=1.0).optimal == NS       # a tie is a no-split
    assert [_rec(ns=2.0, qt=1.5).label, _rec(ns=1.0, qt=1.0).label] == [1, 0]


def _traj(seed=0, ns32=3.0, kns=(1.0, 2.0, 3.0, 4.0), kqt=(2.0, 1.0, 4.0, 3.0),
          delta=0.125):
    rng = np.random.default_rng(seed)
    kns, kqt = np.array(kns), np.array(kqt)
    qt32 = float(np.minimum(kns, kqt).sum() * 256.0 + delta * 1024.0) / 1024.0
    return Trajectory(state32=rng.random(115).astype(np.float32),
                      ns_j_pp=ns32, qt_j_pp=qt32, delta_qt_pp=delta,
                      child_features=rng.random((4, 115)).astype(np.float32),
                      child_ns_j_pp=kns, child_qt_j_pp=kqt)


BAD_COSTS = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("bad", BAD_COSTS)
@pytest.mark.parametrize("field", ["ns", "qt"])
def test_record_refuses_non_finite_or_non_positive_cost(field, bad):
    with pytest.raises(DatasetError, match="record costs must be positive and finite"):
        _rec(**{field: bad})


def _traj_fields(**changes) -> dict:
    t = _traj()
    fields = {name: getattr(t, name) for name in (
        "state32", "ns_j_pp", "qt_j_pp", "delta_qt_pp", "child_features",
        "child_ns_j_pp", "child_qt_j_pp")}
    return {**fields, **changes}


@pytest.mark.parametrize("bad", BAD_COSTS)
@pytest.mark.parametrize("field", ["ns_j_pp", "qt_j_pp", "child_ns_j_pp",
                                   "child_qt_j_pp", "delta_qt_pp"])
def test_trajectory_refuses_non_finite_or_non_positive_cost(field, bad):
    fields = _traj_fields()
    if field.startswith("child_"):
        value = fields[field].copy()
        value[2] = bad
    else:
        value = bad
    if field == "delta_qt_pp" and bad == 0.0:
        Trajectory(**_traj_fields(delta_qt_pp=0.0, qt_j_pp=_traj(delta=0.0).qt_j_pp))
        return                                 # a free split signal is allowed
    with pytest.raises(DatasetError, match="trajectory costs must be positive and finite"):
        Trajectory(**{**fields, field: value})


def _poke_f8(path, offset: int, value: float) -> None:
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, offset, value)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -2.0])
def test_load_refuses_container_with_bad_cost(tmp_path, capsys, bad):
    n, header, desc = 3, 27, 115 * 4
    recs = tmp_path / "r.qtds"
    save_records([_rec(seed=i) for i in range(n)], recs)
    # ns_j_pp column: after the descriptors and the u16 size and qp columns
    _poke_f8(recs, header + n * (desc + 2 + 2) + 8, bad)
    with pytest.raises(DatasetError, match="record costs must be positive and finite"):
        load_records(recs)
    trajs = tmp_path / "t.qtds"
    save_trajectories([_traj(seed=i) for i in range(n)], trajs)
    # child_ns_j_pp column: after state32, three f8 columns and the children
    _poke_f8(trajs, header + n * (desc + 3 * 8 + 4 * desc) + 8 * 5, bad)
    with pytest.raises(DatasetError, match="trajectory costs must be positive and finite"):
        load_trajectories(trajs)

    capsys.readouterr()
    for argv in (["train", "reg", "--dataset", str(recs)],
                 ["train", "dqn", "--trajectories", str(trajs)]):
        assert main(argv + ["--out", str(tmp_path / "m.qtnn")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "costs must be positive and finite" in err
    assert not (tmp_path / "m.qtnn").exists()


def _poke_f4(path, offset: int, value: float) -> None:
    data = bytearray(path.read_bytes())
    struct.pack_into("<f", data, offset, value)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["features", "state32", "child_features"])
def test_load_refuses_non_finite_descriptor(tmp_path, capsys, field, bad):
    n, header, desc = 3, 27, 115 * 4
    if field == "features":
        path, save, load = tmp_path / "r.qtds", save_records, load_records
        save([_rec(seed=i) for i in range(n)], path)
        offset = header + desc + 5 * 4                   # item 1, slot 5
        argv = ["train", "reg", "--dataset", str(path)]
    else:
        path, save, load = tmp_path / "t.qtds", save_trajectories, load_trajectories
        save([_traj(seed=i) for i in range(n)], path)
        if field == "state32":
            offset = header + 2 * desc + 7 * 4           # item 2, slot 7
        else:   # after state32 and three f8 columns: item 1, child 3, slot 100
            offset = header + n * (desc + 3 * 8) + (4 + 3) * desc + 100 * 4
        argv = ["train", "dqn", "--trajectories", str(path)]
    _poke_f4(path, offset, bad)
    with pytest.raises(DatasetError, match=f"{field} column holds a value that is not finite"):
        load(path)

    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "m.qtnn")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "not finite" in err
    assert not (tmp_path / "m.qtnn").exists()


def test_trajectory_split_cost_identity_enforced():
    t = _traj()
    assert t.optimal in (NS, QT)
    with pytest.raises(DatasetError, match="inconsistent"):
        Trajectory(state32=t.state32, ns_j_pp=t.ns_j_pp,
                   qt_j_pp=t.qt_j_pp + 0.5, delta_qt_pp=t.delta_qt_pp,
                   child_features=t.child_features,
                   child_ns_j_pp=t.child_ns_j_pp,
                   child_qt_j_pp=t.child_qt_j_pp)
    with pytest.raises(DatasetError, match="4 child"):
        Trajectory(state32=t.state32, ns_j_pp=1.0, qt_j_pp=1.0,
                   delta_qt_pp=0.0,
                   child_features=np.zeros((3, 115), np.float32),
                   child_ns_j_pp=np.zeros(3), child_qt_j_pp=np.zeros(3))


# -- collection -----------------------------------------------------------


def test_collect_counts_per_size():
    frame = natural_frame(40, h=64, w=64)      # exactly one CTU
    cfg = CodecConfig()
    recs = collect_records([frame], (22, 37), cfg, sizes=(32,), seed=0)
    assert len(recs) == 2 * 4                  # 4 size-32 blocks per qp
    assert {r.cu_size for r in recs} == {32}
    assert Counter(r.qp for r in recs) == {22: 4, 37: 4}
    both = collect_records([frame], (22, 37), cfg, sizes=(32, 16), seed=0)
    assert len(both) == 2 * (4 + 16)           # plus 16 size-16 blocks per qp


def test_collect_walk_builds_one_patch_per_visit(monkeypatch):
    calls = count_patch_calls(monkeypatch)
    nodes, vecs = dataset._walk_frame(natural_frame(40, h=64, w=128),
                                      CodecConfig(qp=27), {})
    assert len(nodes) == len(vecs) == 2 * 85
    assert calls == [node.rect for node in nodes] == list(vecs)


def test_collect_walks_compute_each_source_region_once(monkeypatch):
    # the block and its quadrants are source pixels at every qp, and each
    # quadrant is also a child block: four walks sharing the frame's memo
    # compute each distinct one once, in stacked passes, and each distinct
    # strip once in the CTU search that cuts it; only block and quadrant
    # entries outlive a search
    frame = natural_frame(40, h=64, w=128)
    source = set()
    for side in (64, 32, 16, 8):
        for y in range(0, 64, side):
            for x in range(0, 128, side):
                block = frame.pixels[y:y + side, x:x + side]
                h = side // 2
                for region in (block, block[:h, :h], block[:h, h:], block[h:, :h],
                               block[h:, h:]):
                    source.add((region.shape, region.tobytes()))
    assert len(source) == 2 * (85 + 64 * 4)     # no two regions alike
    calls, searches, sources_computed = Counter(), [], Counter()
    computed = {"hog8": Counter(), "glcm5": Counter()}

    def counting(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    def stacking(name, fn):
        def run(stacks):
            for stack in stacks:
                for region in stack:
                    computed[name][region.shape, region.tobytes()] += 1
            return fn(stacks)
        return run

    def single_region_kernel(region):
        raise AssertionError("collection ran a single-region kernel")

    def texture_memo(keys, shared):
        before = set(shared)
        for counter in computed.values():
            counter.clear()
        memo = features.texture_memo(keys, shared)
        regions = {(r.shape, r.tobytes()) for key in keys for r in features._regions(key)}
        for counter in computed.values():
            assert set(counter.values()) == {1}
            assert set(counter) == regions - before
        sources_computed.update(set(computed["hog8"]) & source)
        assert set(shared) <= source                # no strip entry survives a search
        searches.append(len(keys))
        return memo

    monkeypatch.setattr(dataset, "texture_memo", texture_memo)
    monkeypatch.setattr(dataset, "build_vector",
                        counting("build_vector", dataset.build_vector))
    for name in ("hog8", "glcm5"):
        monkeypatch.setattr(features, name, counting(name, getattr(features, name)))
        monkeypatch.setattr(features, f"_{name}_stack",
                            stacking(name, getattr(features, f"_{name}_stack")))
        monkeypatch.setattr(features, f"_{name}", single_region_kernel)
    memo = {}
    for qp in QPS4:
        dataset._walk_frame(frame, CodecConfig(qp=qp), memo)
    assert searches == [85] * (4 * 2)
    assert sources_computed == dict.fromkeys(source, 1) and set(memo) == source
    visits = 4 * 2 * 85
    assert calls == {"build_vector": visits, "hog8": 8 * visits, "glcm5": 8 * visits}


def _keys(frame, qp, cfg):
    """Each visit's descriptor key, in visit order, from a plain exhaustive
    search of ``frame`` at ``qp``."""
    keys, state = [], SearchState(frame)
    for rect in tile_ctus(frame, cfg.ctu):
        exhaustive_search(rect, cfg.at_qp(qp), state,
                          visitor=lambda v: keys.append(descriptor_key(v)))
    return keys


COLLECT_FRAMES = [natural_frame(41, h=64, w=128),
                  LumaFrame(np.kron(natural_frame(42, h=16, w=16).pixels // 64 * 64,
                                    np.ones((4, 4), np.uint8)))]   # flat 4x4 cells


def test_walk_descriptors_are_the_vectors_of_their_keys():
    memo = {}
    for frame in COLLECT_FRAMES:
        for qp in QPS4:
            nodes, vecs = dataset._walk_frame(frame, CodecConfig(qp=qp), memo)
            keys = _keys(frame, qp, CodecConfig())
            assert [k.rect for k in keys] == [n.rect for n in nodes] == list(vecs)
            for key in keys:
                assert vecs[key.rect].tobytes() == build_vector(key).tobytes()


def test_collected_records_and_trajectories_hold_the_vectors_of_their_keys():
    cfg = CodecConfig()
    records, trajectories = Counter(), Counter()
    for frame in COLLECT_FRAMES:
        for qp in QPS4:
            keys = _keys(frame, qp, cfg)
            for key in keys:
                vec = build_vector(key).tobytes()
                if key.rect.w in (32, 16):
                    records[qp, key.rect.w, vec] += 1
                if key.rect.w == 32:
                    x, y = key.rect.x, key.rect.y       # its four 16x16 children
                    children = [k for k in keys if k.rect.w == 16
                                and 0 <= k.rect.x - x < 32 and 0 <= k.rect.y - y < 32]
                    trajectories[vec, b"".join(build_vector(k).tobytes()
                                               for k in children)] += 1
    assert records == Counter(
        (r.qp, r.cu_size, r.features.tobytes())
        for r in collect_records(COLLECT_FRAMES, QPS4, cfg, sizes=(32, 16)))
    assert trajectories == Counter(
        (t.state32.tobytes(), t.child_features.tobytes())
        for t in collect_trajectories(COLLECT_FRAMES, QPS4, cfg))


def test_collect_from_frame_with_remainders_matches_its_full_ctu_crop(tmp_path):
    frame = natural_frame(44, h=130, w=200)    # 2px bottom, 8px right remainder
    crop = LumaFrame(frame.pixels[:128, :192])
    cfg = CodecConfig()
    for name, frames in (("full", [frame]), ("crop", [crop])):
        save_records(collect_records(frames, (27,), cfg, sizes=(32, 16), seed=5),
                     tmp_path / f"{name}.qtds")
        save_trajectories(collect_trajectories(frames, (27,), cfg, seed=5),
                          tmp_path / f"{name}.traj.qtds")
    for suffix in (".qtds", ".traj.qtds"):
        full = (tmp_path / f"full{suffix}").read_bytes()
        assert len(full) > 1000
        assert full == (tmp_path / f"crop{suffix}").read_bytes()


def test_collect_is_seed_shuffled_but_content_stable():
    frames = [natural_frame(41, h=64, w=64)]
    a = collect_records(frames, (32,), CodecConfig(), sizes=(32, 16), seed=1)
    b = collect_records(frames, (32,), CodecConfig(), sizes=(32, 16), seed=1)
    c = collect_records(frames, (32,), CodecConfig(), sizes=(32, 16), seed=2)

    def key(r):
        return (r.cu_size, r.qp, r.ns_j_pp, r.qt_j_pp, r.features.tobytes())

    assert [key(r) for r in a] == [key(r) for r in b]
    assert [key(r) for r in a] != [key(r) for r in c]
    assert sorted(key(r) for r in a) == sorted(key(r) for r in c)


def test_constant_frame_yields_all_no_split():
    frame = LumaFrame(np.full((64, 64), 128, np.uint8))
    recs = collect_records([frame], (32,), CodecConfig(), sizes=(32, 16), seed=0)
    assert recs and all(r.optimal == NS for r in recs)


@pytest.mark.parametrize("sizes,refused", [
    ((), []), ((48,), [48]), ((8,), [8]), ((8, 32, 48, 16), [48, 8]),
])
def test_collect_rejects_bad_sizes(sizes, refused):
    frame = natural_frame(42, h=64, w=64)
    with pytest.raises(ValueError, match=re.escape(
            f"block sizes {refused} refused; allowed sides are [32, 16], "
            "those below the 64x64 CTU that the search can split")):
        collect_records([frame], (32,), CodecConfig(), sizes=sizes)


def test_collect_rejects_size_equal_to_ctu():
    frame = natural_frame(43, h=64, w=64)
    with pytest.raises(ValueError, match=re.escape(
            "block sizes [32] refused; allowed sides are [16]")):
        collect_records([frame], (32,), CodecConfig(ctu=32, max_depth=2),
                        sizes=(32,))


def test_collect_rejects_empty_frames():
    with pytest.raises(DatasetError, match="empty frame list"):
        collect_records([], (32,), CodecConfig(), sizes=(32,))


def test_collect_trajectories_counts_and_invariant():
    frame = natural_frame(44, h=64, w=64)
    cfg = CodecConfig()
    trajs = collect_trajectories([frame], (22, 32), cfg, seed=0)
    assert len(trajs) == 2 * 4                 # 4 blocks of size 32 per qp
    sc = lambda_of_qp(22) * SPLIT_BITS
    assert any(abs(t.delta_qt_pp - sc / 1024.0) < 1e-12 for t in trajs)


def test_collect_trajectories_needs_child_split_costs():
    frame = natural_frame(45, h=64, w=64)
    with pytest.raises(ValueError, match=re.escape(
            "block sizes [32, 16] refused; allowed sides are []")):
        collect_trajectories([frame], (32,), CodecConfig(max_depth=1))
    with pytest.raises(ValueError, match=re.escape(
            "block sizes [16] refused; allowed sides are [32]")):
        collect_trajectories([frame], (32,), CodecConfig(max_depth=2))
    with pytest.raises(ValueError, match=re.escape(
            "block sizes [32] refused; allowed sides are [16]")):
        collect_trajectories([frame], (32,),
                             CodecConfig(ctu=32, max_depth=2))


@pytest.mark.parametrize("collect", [
    lambda frame, qps: collect_records([frame], qps, CodecConfig(), (32,)),
    lambda frame, qps: collect_trajectories([frame], qps, CodecConfig()),
], ids=["records", "trajectories"])
def test_collect_memory_peak_is_bounded(monkeypatch, collect):
    # The tracemalloc peak of collecting the benchmark's 128x128 reference
    # frame at its four qps, after a warm-up call, is 1.65 MB (records) and
    # 1.76 MB (trajectories) under the texture pass cap of features
    # (_PASS_PIXELS, _PASS_REGIONS), and 3.00 MB with the cap lifted. The
    # bound leaves 25% over the larger capped peak and lies 0.8 MB below
    # the uncapped one.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import frames
        import pipeline
    finally:
        for name in ("frames", "pipeline"):
            sys.modules.pop(name, None)
    h, w, zone = pipeline.FRAME_SIZES["ref_train"]
    seed = [pipeline.REFERENCE_SEED, list(pipeline.FRAME_SIZES).index("ref_train")]
    frame = LumaFrame(frames.mosaic(seed, h, w, zone))
    collect(frame, pipeline.QPS)
    tracemalloc.start()
    try:
        collect(frame, pipeline.QPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6


# -- balancing --------------------------------------------------------------


def test_balance_downsamples_majority_per_size():
    recs = ([_rec(seed=i, size=32, ns=2.0, qt=1.0) for i in range(100)]     # QT
            + [_rec(seed=100 + i, size=32, ns=1.0, qt=2.0) for i in range(40)]  # NS
            + [_rec(seed=200 + i, size=16, ns=1.0, qt=2.0) for i in range(10)]
            + [_rec(seed=300 + i, size=16, ns=2.0, qt=1.0) for i in range(10)])
    out = balance(recs, seed=5)
    counts = Counter((r.cu_size, r.optimal) for r in out)
    assert counts == {(32, QT): 40, (32, NS): 40, (16, NS): 10, (16, QT): 10}
    # original relative order survives
    ids = {id(r): i for i, r in enumerate(recs)}
    pos = [ids[id(r)] for r in out]
    assert pos == sorted(pos)
    # deterministic per seed
    again = balance(recs, seed=5)
    assert [id(r) for r in again] == [id(r) for r in out]
    assert [id(r) for r in balance(recs, seed=6)] != [id(r) for r in out]


def test_balance_rejects_one_sided_stratum():
    recs = [_rec(seed=i, ns=1.0, qt=2.0) for i in range(8)]  # NS only
    with pytest.raises(DatasetError, match="class QT empty"):
        balance(recs)


def test_balance_trajectories_by_optimal_action():
    trajs = [_traj(seed=i, ns32=0.5) for i in range(12)]          # NS optimal
    trajs += [_traj(seed=100 + i, ns32=50.0) for i in range(4)]   # QT optimal
    out = balance_trajectories(trajs, seed=1)
    assert Counter(t.optimal for t in out) == {NS: 4, QT: 4}


# -- training targets ---------------------------------------------------------


def test_normalize_ratio_mode():
    recs = [_rec(seed=1, ns=2.0, qt=3.0), _rec(seed=2, ns=4.0, qt=1.0)]
    x, y, norm = normalize_targets(recs)
    assert x.shape == (2, 115) and x.dtype == np.float32
    assert y.shape == (2, 1)
    assert y[0, 0] == pytest.approx(1.5) and y[1, 0] == pytest.approx(0.25)
    assert norm == {"mode": "ratio", "c_median": None}
    # X is a fresh array: zeroing its columns leaves the records intact
    x[:] = 0.0
    assert recs[0].features.any() and recs[1].features.any()


def test_normalize_mode_follows_block_sizes():
    one = [_rec(seed=i, size=16, ns=1.0 + i, qt=2.0) for i in range(3)]
    assert normalize_targets(one)[2]["mode"] == "ratio"
    three = [_rec(seed=1, size=32), _rec(seed=2, size=16), _rec(seed=3, size=8)]
    _, y, norm = normalize_targets(three)
    assert norm["mode"] == "median" and y.shape == (3, 2)


def test_normalize_median_mode():
    recs = [_rec(seed=1, size=32, ns=1.0, qt=2.0),
            _rec(seed=2, size=16, ns=3.0, qt=4.0)]
    x, y, norm = normalize_targets(recs)
    # pooled per-pixel costs {1,2,3,4} -> median 2.5
    assert norm == {"mode": "median", "c_median": 2.5}
    assert y.shape == (2, 2) and y.dtype == np.float32
    assert np.allclose(y, [[1 / 2.5, 2 / 2.5], [3 / 2.5, 4 / 2.5]])


def test_normalize_rejects_empty():
    with pytest.raises(DatasetError, match="empty record set"):
        normalize_targets([])


# -- container -----------------------------------------------------------------


def test_records_roundtrip(tmp_path, records_mixed):
    p = tmp_path / "r.qtds"
    save_records(records_mixed, p)
    back = load_records(p)
    assert len(back) == len(records_mixed)
    for a, b in zip(records_mixed, back):
        assert np.array_equal(a.features, b.features)
        assert (a.cu_size, a.qp, a.ns_j_pp, a.qt_j_pp, a.optimal) == \
               (b.cu_size, b.qp, b.ns_j_pp, b.qt_j_pp, b.optimal)


def test_trajectories_roundtrip(tmp_path, trajectories_small):
    p = tmp_path / "t.qtds"
    save_trajectories(trajectories_small, p)
    back = load_trajectories(p)
    assert len(back) == len(trajectories_small)
    for a, b in zip(trajectories_small, back):
        assert np.array_equal(a.state32, b.state32)
        assert np.array_equal(a.child_features, b.child_features)
        assert a.qt_j_pp == b.qt_j_pp and a.delta_qt_pp == b.delta_qt_pp


def test_container_header_layout(tmp_path):
    p = tmp_path / "h.qtds"
    save_records([_rec()], p)
    raw = p.read_bytes()
    assert raw[:4] == b"QTDS"
    version, kind = struct.unpack_from("<HB", raw, 4)
    assert version == 1 and kind == 0
    assert raw[7:23] == b"5ea0f3d7d5b524e0"
    (count,) = struct.unpack_from("<I", raw, 23)
    assert count == 1


def test_container_field_layout(tmp_path):
    # the bytes are assembled here field by field, independently of the
    # writer's table: header, then one array per field in file order
    recs = [_rec(seed=1, size=32, qp=22, ns=2.0, qt=1.5),     # QT
            _rec(seed=2, size=16, qp=37, ns=1.0, qt=2.0)]     # NS
    want = (b"QTDS" + struct.pack("<HB", 1, 0) + LAYOUT_HASH.encode("ascii")
            + struct.pack("<I", 2)
            + recs[0].features.astype("<f4").tobytes()
            + recs[1].features.astype("<f4").tobytes()
            + struct.pack("<2H", 32, 16) + struct.pack("<2H", 22, 37)
            + struct.pack("<2d", 2.0, 1.0) + struct.pack("<2d", 1.5, 2.0)
            + bytes([1, 0]))
    p = tmp_path / "r.qtds"
    save_records(recs, p)
    assert p.read_bytes() == want

    t = _traj(seed=3)
    want = (b"QTDS" + struct.pack("<HB", 1, 1) + LAYOUT_HASH.encode("ascii")
            + struct.pack("<I", 1)
            + t.state32.astype("<f4").tobytes()
            + struct.pack("<3d", t.ns_j_pp, t.qt_j_pp, t.delta_qt_pp)
            + t.child_features.astype("<f4").tobytes()
            + struct.pack("<4d", *t.child_ns_j_pp)
            + struct.pack("<4d", *t.child_qt_j_pp))
    p = tmp_path / "t.qtds"
    save_trajectories([t], p)
    assert p.read_bytes() == want


@pytest.mark.parametrize("save,load,make", [
    (save_records, load_records, _rec),
    (save_trajectories, load_trajectories, _traj),
])
def test_load_rejects_container_of_wrong_length(tmp_path, save, load, make):
    p = tmp_path / "n.qtds"
    save([make(seed=i) for i in range(3)], p)
    good = p.read_bytes()
    assert len(load(p)) == 3

    p.write_bytes(good + b"\x00" * 40)                  # junk appended
    with pytest.raises(DatasetError, match="oversized"):
        load(p)

    p.write_bytes(good[:23] + struct.pack("<I", 1) + good[27:])   # count 3 -> 1
    with pytest.raises(DatasetError, match="oversized"):
        load(p)

    p.write_bytes(good[:23] + struct.pack("<I", 4) + good[27:])   # count 3 -> 4
    with pytest.raises(DatasetError, match="truncated"):
        load(p)


def test_empty_containers_roundtrip(tmp_path):
    p = tmp_path / "e.qtds"
    save_records([], p)
    assert load_records(p) == []
    save_trajectories([], p)
    assert load_trajectories(p) == []


def test_load_rejects_corrupt_containers(tmp_path):
    p = tmp_path / "c.qtds"
    save_records([_rec()], p)
    good = p.read_bytes()

    p.write_bytes(b"NOPE" + good[4:])
    with pytest.raises(DatasetError, match="bad magic"):
        load_records(p)

    p.write_bytes(good[:4] + struct.pack("<H", 9) + good[6:])
    with pytest.raises(DatasetError, match="unsupported version 9"):
        load_records(p)

    p.write_bytes(good[:7] + b"0" * 16 + good[23:])
    with pytest.raises(DatasetError, match="layout mismatch"):
        load_records(p)

    p.write_bytes(good)
    with pytest.raises(DatasetError, match="different dataset kind"):
        load_trajectories(p)

    p.write_bytes(good[:-3])
    with pytest.raises(DatasetError, match="truncated"):
        load_records(p)

    p.write_bytes(good[:10])
    with pytest.raises(DatasetError, match="bad magic"):
        load_records(p)


def test_load_rejects_label_that_contradicts_costs(tmp_path):
    p = tmp_path / "l.qtds"
    save_records([_rec(ns=2.0, qt=1.5), _rec(seed=1, ns=1.0, qt=2.0)], p)
    good = p.read_bytes()
    assert good[-2:] == b"\x01\x00"            # one label byte per record: QT, NS
    p.write_bytes(good[:-1] + b"\x01")        # the NS record now claims QT
    with pytest.raises(DatasetError, match="label"):
        load_records(p)
