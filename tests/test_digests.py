"""Frozen sha256 digests of the model's outputs, one per case, each named by
config, resolution and quantity, so a change that moves any output bit
fails here and says where:

* float32 logits and every parameter gradient of toy-desk x 4 aggregators x
  4 comms, batch 4, at 32 px and 37x29 px;
* the batch-1 224 px logits of three paper presets;
* ``save_state`` bytes after 6 toy-desk steps (Linear and MHSA, each with
  Shift and MSG), and the same bytes from a run paused at step 3 and resumed
  through ``load_state``.

The digests hold on the platform they were recorded on (``PLATFORM``:
numpy and scipy versions, BLAS build, CPU features). Elsewhere BLAS kernels
and SIMD loops may round differently, so each case instead compares its
float32 output with a float64 run of the same parameters within 1e-3 of the
largest reference entry, and warns that it did so; the resumed run must
still write the uninterrupted run's bytes. No case skips.

A change that moves outputs by design re-records the digests it names:
``PYTHONPATH=src python tests/test_digests.py`` prints the current
``PLATFORM`` and ``DIGESTS``.
"""

import dataclasses
import functools
import hashlib
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from winmix import tensor as T
from winmix.aggregators import AGGREGATOR_KINDS
from winmix.data import DatasetSpec, gen_dataset
from winmix.model import COMM_KINDS, Model, build_model, forward, preset
from winmix.tensor import Tensor
from winmix.train import Hyperparams, load_state, save_state, train

DESK = [(agg, comm, hw) for agg in AGGREGATOR_KINDS for comm in COMM_KINDS
        for hw in ((32, 32), (37, 29))]
PAPER = ("swin-linmapper-tiny", "msg-linmapper-tiny", "swin-t-mhsa")
TRAINED = [(agg, comm) for agg in ("Linear", "MHSA") for comm in ("Shift", "MSG")]
REL = 1e-3  # off-platform bound, relative to the largest float64 entry


def platform_fingerprint() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "cpu": sorted(k for k, on in __cpu_features__.items() if on)}


PLATFORM = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "blas": "scipy-openblas 0.3.31.188.0",
    "cpu": ["AVX", "AVX2", "AVX512BF16", "AVX512BITALG", "AVX512BW", "AVX512CD", "AVX512DQ",
            "AVX512F", "AVX512FP16", "AVX512IFMA", "AVX512VBMI", "AVX512VBMI2", "AVX512VL",
            "AVX512VNNI", "AVX512VPOPCNTDQ", "AVX512_CLX", "AVX512_CNL", "AVX512_ICL",
            "AVX512_SKX", "AVX512_SPR", "BMI", "BMI2", "CX16", "F16C", "FMA3", "GFNI", "LAHF",
            "LZCNT", "MMX", "MOVBE", "POPCNT", "SSE", "SSE2", "SSE3", "SSE41", "SSE42", "SSSE3",
            "VAES", "VPCLMULQDQ", "X86_V2", "X86_V3", "X86_V4"],
}

DIGESTS = {
    'toy-desk Linear/Shift 32x32 logits':
        'bad48d1ebba3b2ed3570610be0af433ec004b616971b93fca6bc8f17fa1e5b52',
    'toy-desk Linear/Shift 32x32 grads':
        '3768d4b64e615d1b7dc6099bb2c1a7a357ab6963082606c6c00cecd24c56901a',
    'toy-desk Linear/Shift 37x29 logits':
        'eae247bea488438d2a4fef12bc66db827b9cd2bbc94acdfe6686a23eb2875e86',
    'toy-desk Linear/Shift 37x29 grads':
        '351d1339e049556d6719069947a781473ccfa304cb9d09a2de94293dcfe52ffa',
    'toy-desk Linear/Shuffle 32x32 logits':
        '92bdd0b6ab30fe3c15c3ea4c97d186fcbe4bae45e3aef410173bf36584c9cca5',
    'toy-desk Linear/Shuffle 32x32 grads':
        'cd8735c35f186da70ee9d8657c78a849e54726d7fb35220d6fd03511a4f30968',
    'toy-desk Linear/Shuffle 37x29 logits':
        '9bc4b3c73582bfa761f36cb97a0a396e2e3d4b07f30081f598522f6805dfd901',
    'toy-desk Linear/Shuffle 37x29 grads':
        '0ac84673eed402e742b84ad10806c18a797ab31308f77bfb981e221daeedd686',
    'toy-desk Linear/MSG 32x32 logits':
        '930d2eb815f0c7a5e717c9a0b98fa931cdd484179ad0c4db553357eaab10658a',
    'toy-desk Linear/MSG 32x32 grads':
        'fad7198d324cc601bd6c89ec52d29689758af5ef6d57cee19260ad1fd68454b0',
    'toy-desk Linear/MSG 37x29 logits':
        'eab045dfd574a90170d5a5fee99e3526166870069d58a4a2879bd542baedd307',
    'toy-desk Linear/MSG 37x29 grads':
        '768ac47e0a985f4cde8f44db8a1a7db24be3f792f886f7ae8dc761ff745beacd',
    'toy-desk Linear/None 32x32 logits':
        '92bdd0b6ab30fe3c15c3ea4c97d186fcbe4bae45e3aef410173bf36584c9cca5',
    'toy-desk Linear/None 32x32 grads':
        'cd8735c35f186da70ee9d8657c78a849e54726d7fb35220d6fd03511a4f30968',
    'toy-desk Linear/None 37x29 logits':
        '9bc4b3c73582bfa761f36cb97a0a396e2e3d4b07f30081f598522f6805dfd901',
    'toy-desk Linear/None 37x29 grads':
        '0ac84673eed402e742b84ad10806c18a797ab31308f77bfb981e221daeedd686',
    'toy-desk DWLinear/Shift 32x32 logits':
        '67ce8d122e1b30ddda73e6b1228101342f9fd72eef70172d3511d59757d84c58',
    'toy-desk DWLinear/Shift 32x32 grads':
        '973599f8a41ee9ac60cb1694beee27e33aca18344e6ce4cff5271a510412cc20',
    'toy-desk DWLinear/Shift 37x29 logits':
        'cd115d1b8e3c670bec49467af1bf8591ae1db9a85a040fe84ca1728780b1caa9',
    'toy-desk DWLinear/Shift 37x29 grads':
        '0f6fd55ebf427c0392272fcf58e67b8b0ef52a1daa00e77f2999ae18fbdcf728',
    'toy-desk DWLinear/Shuffle 32x32 logits':
        'b0ca09037d2d5522d68746a9fadf9f1caab9796edaaa88ca3d5d47ec9df8c18f',
    'toy-desk DWLinear/Shuffle 32x32 grads':
        'fb27341896813129ebd799fe456bb824a5252f8ac3bd174db9f4b65b25650f51',
    'toy-desk DWLinear/Shuffle 37x29 logits':
        '621144f80690fc59dfd03bcd3e64d9960c8e6adda4fd4c10f2a879f35a961686',
    'toy-desk DWLinear/Shuffle 37x29 grads':
        '011209c9a2ca13a7b8be363612beabbc402ce8647552bf67b8f1e8cc29cf756b',
    'toy-desk DWLinear/MSG 32x32 logits':
        '8b220c62d5152f21bfd6568550dfdd0254ffe7ccacb1f1eda0ce8664c51dd2bf',
    'toy-desk DWLinear/MSG 32x32 grads':
        'f1d0d405879c26d2e0294cfd595f737e2ce8e72ffc4f4b8e7483f9890787b8d1',
    'toy-desk DWLinear/MSG 37x29 logits':
        '36dc31eea7ed7d251f2de85cdb2795418694ae5784b7a2b53f9e5cb11c902659',
    'toy-desk DWLinear/MSG 37x29 grads':
        'bbf59fc631fe5170cb71bebce32bdb080df6c9229c7777894b72c2ca1b0ef83c',
    'toy-desk DWLinear/None 32x32 logits':
        'b0ca09037d2d5522d68746a9fadf9f1caab9796edaaa88ca3d5d47ec9df8c18f',
    'toy-desk DWLinear/None 32x32 grads':
        'fb27341896813129ebd799fe456bb824a5252f8ac3bd174db9f4b65b25650f51',
    'toy-desk DWLinear/None 37x29 logits':
        '621144f80690fc59dfd03bcd3e64d9960c8e6adda4fd4c10f2a879f35a961686',
    'toy-desk DWLinear/None 37x29 grads':
        '011209c9a2ca13a7b8be363612beabbc402ce8647552bf67b8f1e8cc29cf756b',
    'toy-desk MLP/Shift 32x32 logits':
        'b19aef3fd613d2d7e7238e948763f81f95a07b4036f822e9920a1b7f217caaf5',
    'toy-desk MLP/Shift 32x32 grads':
        'eb7b299f8f7db1999fd5e8b42f92897a16bf7474b1d3f9dd12855a8b35bcec65',
    'toy-desk MLP/Shift 37x29 logits':
        '32e3a845842669341628bea498883a61fb673b3ca24ec789e8918fffb5d036e8',
    'toy-desk MLP/Shift 37x29 grads':
        'b5f7864678862d2078ab734a0f1da0cafd248d65de1f544164425b0aa8e1c7be',
    'toy-desk MLP/Shuffle 32x32 logits':
        '88a3b169b9341dadbb6cb54f311de7056b2e237349feedfa98dd6403cef804df',
    'toy-desk MLP/Shuffle 32x32 grads':
        '57463c69a68e99c895a6b8e3cc12d7ca1acc95a4c9873f2b9f083c3d08c91a9e',
    'toy-desk MLP/Shuffle 37x29 logits':
        '05a2bc38f0985154968724fa2ffc75509a033a55985413ca854054ae9375c380',
    'toy-desk MLP/Shuffle 37x29 grads':
        '014e3cb2338849d209ac89c9d29b468df81c297fc374599e9180cbb5e61e2dd0',
    'toy-desk MLP/MSG 32x32 logits':
        'a0a169f26272b765f506de5493b14adc3593da79f8ed1c70c22b2df395dc71f1',
    'toy-desk MLP/MSG 32x32 grads':
        'e9ecac87c5a4f47d0e768163519d9399f6083c883d0b8bd9297876cdb77e0241',
    'toy-desk MLP/MSG 37x29 logits':
        '7271a04779cc8ef94618f37dd77878aa77136841d115324a67a302dd95d5d34a',
    'toy-desk MLP/MSG 37x29 grads':
        '2bba353e6ccc005d17192c608c95d4590ac9e3fd7e40797c5c18a46396efe22d',
    'toy-desk MLP/None 32x32 logits':
        '88a3b169b9341dadbb6cb54f311de7056b2e237349feedfa98dd6403cef804df',
    'toy-desk MLP/None 32x32 grads':
        '57463c69a68e99c895a6b8e3cc12d7ca1acc95a4c9873f2b9f083c3d08c91a9e',
    'toy-desk MLP/None 37x29 logits':
        '05a2bc38f0985154968724fa2ffc75509a033a55985413ca854054ae9375c380',
    'toy-desk MLP/None 37x29 grads':
        '014e3cb2338849d209ac89c9d29b468df81c297fc374599e9180cbb5e61e2dd0',
    'toy-desk MHSA/Shift 32x32 logits':
        '4ccd8f288caf1a55bd8662a51642af8c50991de9c5b54448ac1c1b7ead943af2',
    'toy-desk MHSA/Shift 32x32 grads':
        '1975e640d3a0226bcbb21662cc0bed9b71a44375d12db4e95cde15113ce2dfe7',
    'toy-desk MHSA/Shift 37x29 logits':
        '73c3f9fb92afcff73dbdcac8bd7eab9d96d5bfec7a1b43487f81ef197516282d',
    'toy-desk MHSA/Shift 37x29 grads':
        '2602ba6e8299007cfa1d264012958daabdfe76cdbc6653e230e2b6e985bf2b18',
    'toy-desk MHSA/Shuffle 32x32 logits':
        '4ccd8f288caf1a55bd8662a51642af8c50991de9c5b54448ac1c1b7ead943af2',
    'toy-desk MHSA/Shuffle 32x32 grads':
        'eda635ced6f8097a92d96910c1f6314cd6da43a41c5e7a36d62fdb2e14bbf79d',
    'toy-desk MHSA/Shuffle 37x29 logits':
        'd82f6bdd4182788dc3de75b161bbdabdadaa73ee2adf4adc4b4e21346077d96a',
    'toy-desk MHSA/Shuffle 37x29 grads':
        'dd59d2e85b6ab5280a7de131abecf84f4a02005d1b8b35af2bb0d29eef0d0dc3',
    'toy-desk MHSA/MSG 32x32 logits':
        'dbae3302e07c0798dde24081cd4d80ab5e5777e226e9884e982c7d8939ee1191',
    'toy-desk MHSA/MSG 32x32 grads':
        '09a1f4e2454cd1affe6637cdd63dadba476062dbcf6bf04fe5a44a2d8767e302',
    'toy-desk MHSA/MSG 37x29 logits':
        'cda4408890aeaed09467a8fa7e647345d612c57c00626666827ba6cc312922b4',
    'toy-desk MHSA/MSG 37x29 grads':
        '7b2dde7882253c2dd09bc84c79a8480047656a506664bc8b430bf62725c6ecaf',
    'toy-desk MHSA/None 32x32 logits':
        '4ccd8f288caf1a55bd8662a51642af8c50991de9c5b54448ac1c1b7ead943af2',
    'toy-desk MHSA/None 32x32 grads':
        'eda635ced6f8097a92d96910c1f6314cd6da43a41c5e7a36d62fdb2e14bbf79d',
    'toy-desk MHSA/None 37x29 logits':
        'd82f6bdd4182788dc3de75b161bbdabdadaa73ee2adf4adc4b4e21346077d96a',
    'toy-desk MHSA/None 37x29 grads':
        'dd59d2e85b6ab5280a7de131abecf84f4a02005d1b8b35af2bb0d29eef0d0dc3',
    'swin-linmapper-tiny 224x224 logits':
        '8471de48e0a5f115feabe220e57f329bdbf16baec09a56551951f2d43c7a82a4',
    'msg-linmapper-tiny 224x224 logits':
        'f0b0720befaaf97251c0220e6a984501104e07e81e276dea48977a127013e35c',
    'swin-t-mhsa 224x224 logits':
        'e1cbd8c94ea6c5638c583a6a3f2cf627cdab53e6f942fee9f438f4663be58619',
    'toy-desk Linear/Shift save_state after 6 steps':
        '618a252f2f95d8266dc7f404b422a0fa17027b133a509c3c42ce611c0e1be78c',
    'toy-desk Linear/MSG save_state after 6 steps':
        'ca30ff26c63b1ba6495b9a28339108ae8fde945068bdbae56a674e41f4ea1abd',
    'toy-desk MHSA/Shift save_state after 6 steps':
        'c57f48c1e86ca023ef6f9be719e263628785f09cdbe5353a1765d8c1e5cfd620',
    'toy-desk MHSA/MSG save_state after 6 steps':
        '8d87b7f61ee1c1bf1a8ca281bac63f15f46b8428dfa726d470043574dd43e05b',
}

ON_PLATFORM = platform_fingerprint() == PLATFORM


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def _as_float64(model: Model) -> Model:
    params = {k: Tensor(t.data.astype(np.float64), requires_grad=True)
              for k, t in model.params.items()}
    return Model(model.config, params, np.dtype(np.float64))


def _logits(model: Model, images: np.ndarray) -> np.ndarray:
    with T.no_grad():
        return forward(model, Tensor(images.astype(model.dtype))).numpy()


@functools.cache
def _desk(agg: str, comm: str, hw: tuple[int, int], dtype=np.float32) -> dict:
    """Logits and the table-ordered parameter gradients of ``sum(logits *
    probe)`` for toy-desk at batch 4, with the float32 table of seed 0."""
    model = build_model(dataclasses.replace(preset("toy-desk"), aggregator=agg, comm=comm))
    if dtype == np.float64:
        model = _as_float64(model)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((4, *hw, 3)).astype(np.float32)
    probe = rng.standard_normal((4, model.config.classes)).astype(np.float32)
    logits = forward(model, Tensor(images.astype(dtype)))
    T.backward(T.tsum(logits * Tensor(probe.astype(dtype))))
    return {"logits": [logits.numpy()], "grads": [t.grad for t in model.params.values()]}


def _paper_logits(name: str, dtype=np.float32) -> list[np.ndarray]:
    model = build_model(preset(name))
    if dtype == np.float64:
        model = _as_float64(model)
    images = np.random.default_rng(0).standard_normal((1, 224, 224, 3)).astype(np.float32)
    return [_logits(model, images)]


@functools.cache
def _data():
    return gen_dataset(DatasetSpec(n_train=32, n_val=8, size=32))


@functools.cache
def _trained(agg: str, comm: str) -> dict:
    """``save_state`` bytes after 6 steps, uninterrupted and paused at step 3
    then resumed through ``load_state``, and the uninterrupted model."""
    cfg = dataclasses.replace(preset("toy-desk"), aggregator=agg, comm=comm)
    hp = Hyperparams(steps=6, batch_size=4, eval_every=3)
    with tempfile.TemporaryDirectory() as tmp:
        full, pause, path = Path(tmp, "full.wmix"), Path(tmp, "pause.wmix"), Path(tmp, "r.wmix")
        state = train(cfg, _data(), hp, seed=0)
        save_state(full, state)
        save_state(pause, train(cfg, _data(), hp, seed=0, until=3))
        save_state(path, train(cfg, _data(), hp, state=load_state(pause)))
        return {"full": full.read_bytes(), "resumed": path.read_bytes(), "model": state.model}


def _check(case: str, got: list[np.ndarray], off_platform) -> None:
    """``got`` matches the frozen digest of ``case``. Off the recorded
    platform, ``off_platform()`` gives (float32 outputs, float64 outputs)
    of the same parameters instead, and they must agree within REL."""
    if ON_PLATFORM:
        assert _digest(got) == DIGESTS[case], f"{case}: output bits changed"
        return
    here = platform_fingerprint()
    differs = [k for k in here if here[k] != PLATFORM[k]]
    warnings.warn(f"platform differs from the recorded one in {differs}; "
                  f"outputs are compared with float64 runs within rel {REL}")
    _assert_close(case, *off_platform())


def _assert_close(case: str, got: list[np.ndarray], want: list[np.ndarray]) -> None:
    scale = max(np.abs(w).max() for w in want)
    err = max(np.abs(g.astype(np.float64) - w).max() for g, w in zip(got, want))
    assert err <= REL * scale, f"{case}: float32 differs from float64 by {err:.3g}, " \
                               f"over {REL} of {scale:.3g}"


def _desk_id(agg, comm, hw) -> str:
    return f"toy-desk {agg}/{comm} {hw[0]}x{hw[1]}"


@pytest.mark.parametrize("quantity", ["logits", "grads"])
@pytest.mark.parametrize("agg,comm,hw", DESK, ids=[_desk_id(*c) for c in DESK])
def test_desk_outputs(agg, comm, hw, quantity):
    got = _desk(agg, comm, hw)[quantity]
    _check(f"{_desk_id(agg, comm, hw)} {quantity}", got,
           lambda: (got, _desk(agg, comm, hw, np.float64)[quantity]))


@pytest.mark.parametrize("name", PAPER)
def test_paper_logits_224(name):
    got = _paper_logits(name)
    _check(f"{name} 224x224 logits", got, lambda: (got, _paper_logits(name, np.float64)))


@pytest.mark.parametrize("agg,comm", TRAINED, ids=[f"{a}/{c}" for a, c in TRAINED])
def test_save_state_after_6_steps(agg, comm):
    # off the recorded platform, the trained model's logits stand in for its bytes
    run, images = _trained(agg, comm), _data().val_images
    _check(f"toy-desk {agg}/{comm} save_state after 6 steps",
           [np.frombuffer(run["full"], np.uint8)],
           lambda: ([_logits(run["model"], images)], [_logits(_as_float64(run["model"]), images)]))


@pytest.mark.parametrize("agg,comm", TRAINED, ids=[f"{a}/{c}" for a, c in TRAINED])
def test_resume_at_step_3_writes_the_same_bytes(agg, comm):
    run = _trained(agg, comm)
    assert run["resumed"] == run["full"], f"toy-desk {agg}/{comm}: resume at step 3 differs"


@pytest.mark.parametrize("agg,comm,hw", [("Linear", "MSG", (37, 29)),
                                         ("MHSA", "Shift", (32, 32)),
                                         ("MLP", "Shuffle", (37, 29)),
                                         ("DWLinear", "None", (32, 32))])
def test_off_platform_bound_holds_here(agg, comm, hw):
    # the comparison that replaces the digests elsewhere must pass where
    # the digests pass, or it would fail on any other platform
    for quantity in ("logits", "grads"):
        _assert_close(f"{_desk_id(agg, comm, hw)} {quantity}", _desk(agg, comm, hw)[quantity],
                      _desk(agg, comm, hw, np.float64)[quantity])


def _record() -> dict:
    out = {}
    for agg, comm, hw in DESK:
        for quantity, arrays in _desk(agg, comm, hw).items():
            out[f"{_desk_id(agg, comm, hw)} {quantity}"] = _digest(arrays)
    for name in PAPER:
        out[f"{name} 224x224 logits"] = _digest(_paper_logits(name))
    for agg, comm in TRAINED:
        out[f"toy-desk {agg}/{comm} save_state after 6 steps"] = _digest(
            [np.frombuffer(_trained(agg, comm)["full"], np.uint8)])
    return out


if __name__ == "__main__":
    print("PLATFORM =", platform_fingerprint())
    print("DIGESTS = {")
    for case, digest in _record().items():
        print(f"    {case!r}:\n        {digest!r},")
    print("}")
