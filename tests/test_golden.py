"""Byte-identical CLI output on a fixed small matrix.

Each case runs `apoplan.cli.main` in-process and compares its exit code and
the sha256 of its stdout with recorded values: every command on tiger at
horizons 1 and 2, every command on the cross-sensing fixture at horizon 2,
and `fuzz` with `solve`, `policy` and `check` on fuzz seeds 0-4 at horizons 1
and 2.  A change that means to alter an output re-records the digests with
`python tests/test_golden.py` and says why.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from apoplan.cli import main

DOMAINS = Path(__file__).resolve().parent.parent / "domains"
COMPILING = ("compile", "normalize", "sat", "solve", "policy", "oracle", "check")
FUZZ_SEEDS = range(5)


def _cases():
    """(case id, theory name, argv after the theory file)"""
    for name, horizons in (("tiger", (1, 2)), ("cross_sensing", (2,))):
        for command in ("validate", "ground"):
            yield f"{name}-{command}", name, (command,)
        for h in horizons:
            for command in COMPILING:
                yield f"{name}-{command}-h{h}", name, (command, "--horizon", str(h))
            yield (f"{name}-sat-json-h{h}", name,
                   ("sat", "--horizon", str(h), "--format", "json"))
    for seed in FUZZ_SEEDS:
        for h in (1, 2):
            for command in ("solve", "policy", "check"):
                yield (f"fuzz{seed}-{command}-h{h}", f"fuzz{seed}",
                       (command, "--horizon", str(h)))


CASES = list(_cases())


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _theory_paths(directory: Path) -> dict[str, str]:
    """Theory name -> file; the fuzz theories are written by `apoplan fuzz`."""
    paths = {name: str(DOMAINS / f"{name}.apo") for name in ("tiger", "cross_sensing")}
    for seed in FUZZ_SEEDS:
        path = paths[f"fuzz{seed}"] = str(directory / f"fuzz{seed}.apo")
        assert main(["fuzz", "--seed", str(seed), "--out", path]) == 0
    return paths


def _record(directory: Path) -> dict[str, tuple[int, str]]:
    paths = _theory_paths(directory)
    out = {f"fuzz{seed}": _run(["fuzz", "--seed", str(seed)]) for seed in FUZZ_SEEDS}
    for case, name, (command, *rest) in CASES:
        out[case] = _run([command, paths[name], *rest])
    return out


DIGESTS = {
    'fuzz0': (0, '2a1173d828f5f953e6d6769272627cc5b56e07fcbcb491caf0aec40b30d73dda'),
    'fuzz1': (0, '781c2d576eb20b57cd065e1f38f05b4d65d08329e56b594cca7063843eb113ec'),
    'fuzz2': (0, 'c61f9c05b433bdc048a46cbd4cd8d2def7728066c32435a132206705f36d23b1'),
    'fuzz3': (0, 'b44eb8200a159d7937e88a0817a1fb7099a3ecbebc26a35e56bbb4c939458c80'),
    'fuzz4': (0, 'c2a59ef68523678774250a31ed6032adcce92255cf271c8b8e7ca2c28a330556'),
    'tiger-validate': (0, 'dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22'),
    'tiger-ground': (0, '15cc1c32b123945c423568c8f5003b5e21d9072287160ceadcdec360791556a1'),
    'tiger-compile-h1': (0, 'a3981d55a1079629f2a6bf796b7c0194538e7da1399acf5ea1fbda1d2076e9c2'),
    'tiger-normalize-h1': (0, 'c6bc22113ab76eed2ce46cff96301c88d2caaa409ebeeed35cae3c91b157a112'),
    'tiger-sat-h1': (0, 'd53e1c78a8b98ad4c058a5f04659d5b4fa914880f75239659337a7634fd4a77a'),
    'tiger-solve-h1': (0, 'ed621e6b81a4e4e3f4239c98720d6f8b3f49de268cf2625da5148c9f14c969f4'),
    'tiger-policy-h1': (0, 'ec0b0cd4b36b96fba5b287e0790bf22a333c2119892a9137a918b11f3cb6102b'),
    'tiger-oracle-h1': (0, '4fa55623efce6260de35cbb14a45708d922eab02a7a6ee4f0cc154b59da1f114'),
    'tiger-check-h1': (0, 'ba6c345a4b3a87f056e4439826a948ab0dbf3417ef94bcb81a626dcc2d295bb7'),
    'tiger-sat-json-h1': (0, '65a12f44d9eebdf274d441ad979d4b3f65247d5729dee0c0d998e6d8e69b45d7'),
    'tiger-compile-h2': (0, 'fb08189346377c853be1414b2b5dd67ed4e06b8de75c3cb69271c897b9593a83'),
    'tiger-normalize-h2': (0, 'b64fc8f26d9005eccd22635c559a6553b7fdf6e0c02f78c251f3211b2a6d5968'),
    'tiger-sat-h2': (0, '04abe8563de2c3d1cc4313d500de26bf31a58c572589ade32b55ae8b532f972f'),
    'tiger-solve-h2': (0, 'ab2a7fbc54764c506702802595ae50a26f3573308c3ae52326fa9eea6d64c961'),
    'tiger-policy-h2': (0, '002c1c2ff21cee07ce63b800b48c31d7abfedf3f49e7d7c622f448ba0852fe44'),
    'tiger-oracle-h2': (0, 'e7be6bb4aee5ab172efc60f899e41bf303d4977cfcef2170caee1f69c9213b34'),
    'tiger-check-h2': (0, 'c4f1d45e6ae752bc38b3d54b0000c34e20af68cc8b554828126db5e5cc7bfe70'),
    'tiger-sat-json-h2': (0, '2dc343ad66acc1e8b8ba9c2aec0a5ec4d878cf0ca0166a68ce48364a00cdb90a'),
    'cross_sensing-validate': (0, 'dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22'),
    'cross_sensing-ground': (0, '2e2787dfafcdebc5fcb0803d5f6f9d63a09c26477a197af45923f45cf2e757ee'),
    'cross_sensing-compile-h2': (0, 'e6372a1a05ef173b243ef4a6a069b427908dfa4b5e9430d0cc177c7810ec1e3e'),
    'cross_sensing-normalize-h2': (0, '19824ee3568973a55d1e77c1d4f86cfdb8e8926559a8e3ccbcd70582d9790de7'),
    'cross_sensing-sat-h2': (0, '7d624165f60c086a55a0bd78486074a714d053264973d66a11422ba3cea8a061'),
    'cross_sensing-solve-h2': (0, 'bdb63bfcc30c4fc6470e41a30d3b3a25146300eb8effffa9fe082109fca26d7d'),
    'cross_sensing-policy-h2': (0, '1eaec387a2d3d2ef0f2cef07b7237a6d4600f9cfc010fe4cc5c2ca99199d4deb'),
    'cross_sensing-oracle-h2': (0, '23cc6d423f94bc32035faa3a8458642b12d529a9b6dd4b52b9146de58d29610c'),
    'cross_sensing-check-h2': (0, 'e43e6a1b718a616555d7cba213af84189c339545d6793bc8e4ed7b450722e5db'),
    'cross_sensing-sat-json-h2': (0, '87982aa046a79f5bd0d9a287ddd0bb9d821a4071cd8849a431058bf61f6e6740'),
    'fuzz0-solve-h1': (0, '8b40ec282bd6a3ea114123731ef6e8f8cf452520cbc28f96031b8b6403ea512b'),
    'fuzz0-policy-h1': (0, '43dd1bb0a2a84a0f4d30d301daf61ea551f480722cd5b92429817fbfd0088292'),
    'fuzz0-check-h1': (0, '87b0a5339576750cede245bb14c9d0c519b2aa2147a03aa1c23b92291e28b3c2'),
    'fuzz0-solve-h2': (0, 'a8723e58a26d707ce477aa76fd9fb52361e3806788b2a5a3b4d625afbe3a331c'),
    'fuzz0-policy-h2': (0, '2205896e1c7122ce097e1d61090d744f054b8f6ad22e886e9d54a235cbc4d85e'),
    'fuzz0-check-h2': (0, '11242cab886541c42de6dd85db6056d7728d692d2332ec899fe5f6c6a87c65a9'),
    'fuzz1-solve-h1': (0, '962fd9543ca5b70e7d5f1180df9f8a86961a5adbc4be85f8cafda364368752d1'),
    'fuzz1-policy-h1': (0, '63f5efdbf1f057ca19b7bfc6345015e242bd33e1bb5e717791b0b45413011cf4'),
    'fuzz1-check-h1': (0, '0b363365f1e4b846acaaef4356d9d940ebae4cac21cc6f06c1fc943682d35959'),
    'fuzz1-solve-h2': (0, '0049699e4a38b404334bc65717d2e12a2ae37a2c24258f898d601a6a489355a2'),
    'fuzz1-policy-h2': (0, '61feb0484c333acc4c4b07fa772b0a87966da5ed97e09d4d0a7ce254ad725172'),
    'fuzz1-check-h2': (0, '417c557d3c694148b93b4ce0e0f3b41fa34b8d07ffcf39139edffb19e4b11569'),
    'fuzz2-solve-h1': (0, 'b45e6ef4953026800279845de9417048350cc1c04f16120fedbbf6ca8f0252f8'),
    'fuzz2-policy-h1': (0, '687450528b7aade5448533b71a3d905aeec43da9d353c0e3def7e5497925c029'),
    'fuzz2-check-h1': (0, 'e4b3f1de710c394523322bbb4bdf2907bfb8cb43dd5a626d05453a52796db599'),
    'fuzz2-solve-h2': (0, 'b5aff650b43e3069c5f26e509563fa6db7cc30b2cac244dac20c90ec89553f2d'),
    'fuzz2-policy-h2': (0, 'f4b1ca00192ee09d1ec5a876155cc14f08e64d5219764b623ca8fcd9e6141e25'),
    'fuzz2-check-h2': (0, '995e3beb043c6531aef87d08c7d34854349f8452c6bd106b645a347983ecb36a'),
    'fuzz3-solve-h1': (0, 'a017ffb0429ce4c3c7421cf3c9b76b91a5b6712cdac5fa38dae536f988196949'),
    'fuzz3-policy-h1': (0, '2acc5c08ebb41441ae2f1fbbc4c3ef1420e5cde89d5046468779c0b9b796d0f9'),
    'fuzz3-check-h1': (0, 'bc26f69a8056d05cf69424dda857e0f55df88d4a7e2cca839a6e94fd0654a8f5'),
    'fuzz3-solve-h2': (0, '7ab8b19c8fb03fcc1b56564955e531e081e9d16ff9a2be6ca5c62897087be975'),
    'fuzz3-policy-h2': (0, '35cfb092e036b4a185b220372177ecfe635afe5d6e198750651a1332bec55b7b'),
    'fuzz3-check-h2': (0, 'd32405af2323d91d040b837811162a1dd4aa07cd80c16bb1bb30c4e5c18c0880'),
    'fuzz4-solve-h1': (0, 'e44b7da4416d39caedc6ec03c0a498700d05f88f24ec27cd284e28ac792f616c'),
    'fuzz4-policy-h1': (0, '60d6595b39ad6c09a95a6ec30f15855e69141548acb00d9f7517723daa59c9ce'),
    'fuzz4-check-h1': (0, 'a502e87917a6d63321e5620537583df08b4a6011526c67b62c4bc29465109060'),
    'fuzz4-solve-h2': (0, '1e13e6f2989855edf3eae33bbf5dda9a0777e8e3b71cf4815a37099717b40fd1'),
    'fuzz4-policy-h2': (0, 'e21c9cf7049f91612d7d450ed2af914c211f1198bcb928898ee9dac2c803e4fb'),
    'fuzz4-check-h2': (0, 'c30e9823b2f2d00227e6ae9fd7471ee67cdd6282826347d2318617473742e6da'),
}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.delenv("APOPLAN_FORMAT", raising=False)
    try:
        yield _record(tmp_path_factory.mktemp("golden"))
    finally:
        mp.undo()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_output_is_byte_identical(recorded, case):
    assert recorded[case] == DIGESTS[case]


def test_every_case_has_a_digest():
    assert set(DIGESTS) == {c for c, _, _ in CASES} | {f"fuzz{s}" for s in FUZZ_SEEDS}


if __name__ == "__main__":
    import os
    import tempfile
    os.environ.pop("APOPLAN_FORMAT", None)
    with tempfile.TemporaryDirectory() as d:
        recorded_now = _record(Path(d))
    for case, value in recorded_now.items():
        print(f"    {case!r}: {value!r},")
