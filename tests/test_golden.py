"""Byte-identical CLI output on a fixed small matrix.

Each case runs `apoplan.cli.main` in-process and compares its exit code and
the sha256 of its stdout with recorded values: every command on tiger at
horizons 1 and 2, the compiling commands but `oracle` on tiger at horizon 3,
every command on the cross-sensing fixture at horizon 2, `solve`, `policy`,
`oracle` and `check` on bits4 at horizons 1 and 2, and `fuzz` with `solve`,
`policy` and `check` on fuzz seeds 0-39 at horizons 1 and 2.  A change that
means to alter an output re-records the digests with
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
FUZZ_SEEDS = range(40)


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
    for command in ("compile", "normalize", "sat", "solve", "policy", "check"):
        yield f"tiger-{command}-h3", "tiger", (command, "--horizon", "3")
    for h in (1, 2):
        for command in ("solve", "policy", "oracle", "check"):
            yield f"bits4-{command}-h{h}", "bits4", (command, "--horizon", str(h))
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
    paths = {name: str(DOMAINS / f"{name}.apo")
             for name in ("tiger", "cross_sensing", "bits4")}
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
    'fuzz5': (0, 'd9bcc4e8e19503c78af71b043b3d3d1b56e3f7641f0c932f0221aa1f59fa24c0'),
    'fuzz6': (0, '6aefd1ee0e47ae39e0ad9695a7dbd445c6068d1cc85a9dc918d1acf0f94d3dca'),
    'fuzz7': (0, 'dd197877d0dfc25f86eec6dd8e9599f70f449da352cf666eb9d928fa735e7a0d'),
    'fuzz8': (0, '7adb51fb651b13e714cc429203860d377aac265ff0d0e5c789e90c4e902abea5'),
    'fuzz9': (0, '6c94af568c0a07006f087cfd8286296359ee760070ca98188cf3eaf1186b23d5'),
    'fuzz10': (0, 'eaedce9f4d74843fd1ef00cf7a78228f0fab62bc641ccbd6a20125700712b830'),
    'fuzz11': (0, 'b8febe2e7cd048488b93253600dbda66f8f807c9740505b599dd28d306e49b2e'),
    'fuzz12': (0, '5b77755b9495dabde76976cfbe632a77fbab981dcf525a13b3c45c6fa39bddb4'),
    'fuzz13': (0, 'd34f4f1ade4652d59a93a24e0cae65a620209005687bb72ccd6fb3beb3a1c8f7'),
    'fuzz14': (0, '510acedf7f73bfbc416ee4396daf1211f105d6d902b61e9447b353c398823688'),
    'fuzz15': (0, 'ac4c929eb1e7ab849c6175471cce78e8b6a49e57dc762f3c914b68338d42c3e2'),
    'fuzz16': (0, '7e44ae408b80bcc875c0d18622efaa18dfc8d8e6d592f6a12554027e650e2870'),
    'fuzz17': (0, '47b965f717d656f8ee04527eb9a7114d09b5fba215e2b2a54c017e46797e668c'),
    'fuzz18': (0, 'cd4cff8a79edbd70ce248f5292baa37c87cbef76ce654c54cd669ba33835ee7a'),
    'fuzz19': (0, '245bde16dcb43e67882ffec912301183d5d8779a6907f13fb7358cd4fb0bb289'),
    'fuzz20': (0, 'fe72e4241a2ef497be751607a7271edeeb64ec2cfdcf8efb4304e099979796c7'),
    'fuzz21': (0, '5da8f402fa7effb216e5dbf5d777dc709a3739816c37c9ed41fa056189767d35'),
    'fuzz22': (0, '2ec0a116d1722a6e291dc309cd1287257da6e95b56ae4601509f958f081c7a89'),
    'fuzz23': (0, '1365f35ec1257edb0baf082314a476510653240dc9e96f91f55663402830f68d'),
    'fuzz24': (0, 'b59612b7b8e6e1901b5f29597c7f636741748e1a612302b3625d79da29d04ef0'),
    'fuzz25': (0, '406fc70a9f7fd8d294ec8a9cd7d5a2ea1e7bf636e1e84a9f1e51b915e958e119'),
    'fuzz26': (0, 'f79fa3ff7b0fdec93bff8745449fd0d0ac783ab56633dc4e9abb262941f6d436'),
    'fuzz27': (0, 'b479ba7526c4f7c481271ac1fdbbc898b63c7893690e2e5a61a842cbf6a38c7d'),
    'fuzz28': (0, '219a9d668a6f1ec215102097e1e7422c97358c6fe48afb9e9c471770b8e4dff3'),
    'fuzz29': (0, '685f5a6d1cb1146c8ffea102b59a8d9100e2ef2d19d3e9c6777fd1c08f0020a4'),
    'fuzz30': (0, 'ac98c8bbce626a0e1b85a89dc3dc9300bece8854a742b693b1f7d3086204ec5e'),
    'fuzz31': (0, '6711b9848879f1f470d1645f1db61e77ab339148f436be9150e2d833e54bb3a9'),
    'fuzz32': (0, '1f7614745161dd1e1d05c588d3e0cc0af0dabd8069f8e5e2604894080bb98826'),
    'fuzz33': (0, 'ee1418368f7b90c97b159d82578cfcb6e9055a4e969e11cdff7ff982a1c81606'),
    'fuzz34': (0, '7ccd301938efecd1e9e5b861de0998d8b54c96ecd9d88f9d83f53e587b9ebe2b'),
    'fuzz35': (0, '96d25c3e88e3d6ab8a0b4001d790b205669bdf920c7b02715fd2c62229defdbf'),
    'fuzz36': (0, '9f81f1100a7c15c2ccf0ca34ec63b9aea546bd748aee60ef9585b64b732adf3c'),
    'fuzz37': (0, '00904e2983f7e7bc8fb96b49091862990a559b74fb04ecc8b459b1a0bc89aacb'),
    'fuzz38': (0, 'be428f282daa3273c8cf668061a53069eab156e648edb6f21b5090fc2c1012a9'),
    'fuzz39': (0, 'aefa655be073b6d49d4cf0319ec2bd589ebe17b0e55b7ceda3bba387a9a95e48'),
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
    'tiger-compile-h3': (0, 'f4091ed59ef197689a33916004c7f502e423524fb79aaa6b2b15f6cdce938150'),
    'tiger-normalize-h3': (0, '551806ddeed1b376a8f92cab0aad03907858cba2ee0244d73536a292540046d9'),
    'tiger-sat-h3': (0, '6fa784a50d8d1b859de4097bd2e30d298575644f8f5fd25d099a62d23f019e74'),
    'tiger-solve-h3': (0, '0158577547ba9b13738efec26eb1201d3e18d51fb867afca5b8c1a9759196b65'),
    'tiger-policy-h3': (0, 'd83893998cb28c6f5099cb10b204f8ff1818b91f68db7e9dbe2b97064b6dd0b8'),
    'tiger-check-h3': (0, '8b7c7359b78af7077e900af08cf7a8ab8e837c4aedc7716401c46e5467611270'),
    'bits4-solve-h1': (0, '32ef3150ac1d57bed881204040bbe180a73360107d215bdaf7a91bf617279551'),
    'bits4-policy-h1': (0, 'cd778ca83ae3ae19dee0a24636e8b128288f9fcf9ceda354d0b5c754a6529990'),
    'bits4-oracle-h1': (0, 'ecdb165829e0cdf91d0870261a4e5a0b8fa76932526631375d587c19e330ae5c'),
    'bits4-check-h1': (0, 'de47dcb8b49b6de9bef7c950d05ff30c99ed75e8ade4b807d3feae0a77f364e3'),
    'bits4-solve-h2': (0, 'c0f1f28ccfda300346844a448e806260ee8f56f3ee40330caadaaafb0a22eae2'),
    'bits4-policy-h2': (0, '6828be56971170dc152d99ed55d34d969d80afc94e8e65b9c2b229e199911eb9'),
    'bits4-oracle-h2': (0, 'bc08a7f4575a5bdf1f2da181330f904cacfa47a3cea1ba3babfc6d3ddbd557d9'),
    'bits4-check-h2': (0, '63b601571bf50ac9171f73c3b6f522dd3e1cf7ed1f97965c0bdfe81b28e64aff'),
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
    'fuzz5-solve-h1': (0, '3a23050819e8c06e67b01ab01126b7b566a6c3065a577b1c88cd91f1358729f4'),
    'fuzz5-policy-h1': (0, '0b32ec2ddd587908cc0b7c1f3bb6aeeb661e0401f770c837abc88867825801b3'),
    'fuzz5-check-h1': (0, '4fb8667f256835567fb57968e962d5cc84b76f10fc0ddf7174a55651a98dfb86'),
    'fuzz5-solve-h2': (0, '3a79cef5fc1e5d827eb6f8524d9f93f8ab24fec0fc936c4efaeea5e66cdf74a0'),
    'fuzz5-policy-h2': (0, 'bcaa054815bebf3bb32fb44094eb1416f938cf8c4e204d69c6094e7e055c4ac9'),
    'fuzz5-check-h2': (0, '7c07132b4091450ec05b8ec8b695cab42ebd278fc15ca96cf09238c579c27abd'),
    'fuzz6-solve-h1': (0, 'a70e92f7f652dc72222281b810e174cdf7074c2f2964f572066bf36a74302e17'),
    'fuzz6-policy-h1': (0, '0daaa55ee29573fff8221d56bc3c010ac240f8c0569a959589ff56b1dd286962'),
    'fuzz6-check-h1': (0, 'fa2905492fce27bdf0379d3bfb971810f5977c743fa31688876e571499a28487'),
    'fuzz6-solve-h2': (0, 'c43f18dd7003e90782302ea17e48a54776beea84c8bc115f8257656a40d53619'),
    'fuzz6-policy-h2': (0, '57a7854d3f6bbf0168fc8b6d35559ab9a4bf80a5830f2792fcef68e0d64f32fb'),
    'fuzz6-check-h2': (0, '47e4608a78feadc69c91477195b9166932d47fe834d71096316100f88016b191'),
    'fuzz7-solve-h1': (0, '92219273dff1130aed9d104c1bb4064004478ed513cfcb74c48702f935c7f570'),
    'fuzz7-policy-h1': (0, 'f31aacd27d111b065804ec7bea7ca3124c3dc08a511d607054cb499716ab71d7'),
    'fuzz7-check-h1': (0, '4fb8667f256835567fb57968e962d5cc84b76f10fc0ddf7174a55651a98dfb86'),
    'fuzz7-solve-h2': (0, '56cf37c4c60862949f27d0cbdc0b97a36702de35d6c9abd87f0449d4212a07dc'),
    'fuzz7-policy-h2': (0, 'c374fcc8a21052b265d36ea7a9fe21ac489a318cbc6fd9e1786af51ae79952be'),
    'fuzz7-check-h2': (0, 'f1996e63b181840386bace7db9b5dd6c70c3c0aa0ca6c18dee15da8f655f04a3'),
    'fuzz8-solve-h1': (0, '70955a20e177639ae7940d81d1a0794d510423098e5f1b520e8491bd9da5e7ca'),
    'fuzz8-policy-h1': (0, '484714da5d9c95df7cb6aa85dac45e18b4c012d9d4e89ee620c2bba59ca622bb'),
    'fuzz8-check-h1': (0, 'c56a750295fdda034bb28c6cb5ac6c5a523a8bb83fc5ea3dfc6459e5ccb5faf7'),
    'fuzz8-solve-h2': (0, '9a1034727e735104365e6dc1d7092c4d1054eea64c9a1e9409b4418d820ab7b9'),
    'fuzz8-policy-h2': (0, '75ef249a42b4d01d367f3a53566b09505d65fc1845c17079f6ad94c51ee845f4'),
    'fuzz8-check-h2': (0, '83794fc532900c7b4406fc69431346eebcfaa9f7e026738b53458e3c6b22318f'),
    'fuzz9-solve-h1': (0, '0cdd4e7dbf6d642374b70f2372a73a9e15746ccbf6da29f7972e4deff2dd0842'),
    'fuzz9-policy-h1': (0, 'c7498f64066423434de95f4b7f2dcb7a9dfd2cbf53b06b73934427b43a76e99b'),
    'fuzz9-check-h1': (0, 'f313e883d712d7c0d9a0c6ad7a316c2588dd2c757adaf4c60a227707fac0b640'),
    'fuzz9-solve-h2': (0, 'f671c3416cf34438a102f45be08550b7a3d47947943227e39624dede3aa2b55a'),
    'fuzz9-policy-h2': (0, '3ee4f498952138aef5820267215c2e2e082f7e5923ae02e2f3f4acf8746d1f28'),
    'fuzz9-check-h2': (0, '7dc933c354148c22f685157bcd939bac74cfc29da5e09ffcaf4596048ef8f08d'),
    'fuzz10-solve-h1': (0, '4b9e9048fff140949e16ae576a2578e8ac9cbd700c810eed275b563edbe7d92f'),
    'fuzz10-policy-h1': (0, '9ff0b4a098689bae8ecd47531ea94d7b53671c8fe4e938fe129e05f68be03cba'),
    'fuzz10-check-h1': (0, '9fa1feb1b081e92edd7c05bb97af8ac881ce90d64493194a94ec8afe4aec9602'),
    'fuzz10-solve-h2': (0, '2d100a8e07bf22f92f19f6e7d9c8951ed3ef21157659336d9c21c9b275305dff'),
    'fuzz10-policy-h2': (0, 'd7147dab989864f953f55b3e567c90ecd843816af7bdfb4038480132447032aa'),
    'fuzz10-check-h2': (0, '4eaa1fc8b0794a2dcae62ea2f583cf812b170bed7a152059bd0ad6ee0f18cde4'),
    'fuzz11-solve-h1': (0, 'c18dfa22f1701c445154031da78ebd5214ac91dd1e88e1b3c922ee4f33d153a2'),
    'fuzz11-policy-h1': (0, '41ce3620bc17d2394eb3eec00a43f64d0d3764adc1ad7e5def3eff6c6f1a8b9e'),
    'fuzz11-check-h1': (0, 'ddfa48094dc944d6e8c73a87e451e1709c59e725ad98db03f9ec9c5fa265b4f2'),
    'fuzz11-solve-h2': (0, '68cd075ab4adeadbb25c9d995d6f38d938af02450e496ca78af68413f21bb36c'),
    'fuzz11-policy-h2': (0, '01d37aba8e771a4567688bb40931ba6c4402f74ee270c6ccad8cd615b2ac64c3'),
    'fuzz11-check-h2': (0, '36cf1fc3dca9bd4b9609aa4c6c8e9d90c4a725ea0425f4fcc824dd9e64af58bc'),
    'fuzz12-solve-h1': (0, '24f545de2bb12a0647f53768a1f9da657ecf88d1b0bec278e5e098b538eb5e40'),
    'fuzz12-policy-h1': (0, 'f04e5227e9ae3b1d808d82ae3e7fe17285f4d68404f718c9412685959541287c'),
    'fuzz12-check-h1': (0, 'fa24a10f0c58413ca96427c533cc0b895fcc582cd784070269a8f29eb273e079'),
    'fuzz12-solve-h2': (0, 'd590df0ef47468bc1f5c25efa04830ce1ea802e81e6bc1da7d5aeaeaa0dae258'),
    'fuzz12-policy-h2': (0, '70ce4d9e857318d96de13f8da52e6fd011be87f42d2952569c7d4ac67cf2d426'),
    'fuzz12-check-h2': (0, '896bace231ba542270093b8da6fcfea977cb321caf51ba51119784080749fb8e'),
    'fuzz13-solve-h1': (0, 'd7677d0bfbf3d16763b13796517b885aa07220e1a388b4785adcb8041e68ec03'),
    'fuzz13-policy-h1': (0, '1e6c48b8ced01b5d28d8fe4b4479c07b9080d63f6ee06125549540d14d63c915'),
    'fuzz13-check-h1': (0, 'd97617312cd2c40f3a7b6d66de1ecb9dfd31413720e4f222643bde90766c47e6'),
    'fuzz13-solve-h2': (0, '2be3344d1a7a4bcb01fee1ea0fa9703d864382967506852a1ee73358cb463957'),
    'fuzz13-policy-h2': (0, 'cf303277ec79d6fa66aa3eb8a9fd576aafcd56d345c219ce71b51f4d69a05b8e'),
    'fuzz13-check-h2': (0, '2bc4b3f397f5434a3896abe62a1154a623be845bd8ab4c2aec82591d0f537a16'),
    'fuzz14-solve-h1': (0, '432c748e2e71827db3b53cbb10d269591b8126730a7b69f088eb0ad76d47416b'),
    'fuzz14-policy-h1': (0, 'f64ecbe4cfbba52d50f8e28a75b7a9a020816dff492c56423dea506b2394da3a'),
    'fuzz14-check-h1': (0, '87b0a5339576750cede245bb14c9d0c519b2aa2147a03aa1c23b92291e28b3c2'),
    'fuzz14-solve-h2': (0, '504afad193633b847036014a77f50b230c2354b7a4c4517ee8924c9d02422722'),
    'fuzz14-policy-h2': (0, 'ad92f7782c88ffa235d40502be3d0fd14185ac4cc322be08c5d8a7143efe4ebf'),
    'fuzz14-check-h2': (0, 'c3aae0c97432130ee50e2ef21ec0e502cdbe3a139f486840ecdf06083d69628d'),
    'fuzz15-solve-h1': (0, '59a74cfe58aa0d3492740ec32dcd6b423ade174606b6e432a94ba16b76bf86e1'),
    'fuzz15-policy-h1': (0, '31a97222957e22adeee9bc7f90b8cb6a844d7c3ed2d9b4a8ee40e66687e0ed27'),
    'fuzz15-check-h1': (0, '51ad1f85ba85ff5fdd557d5533210545a75378d25143085c78b1c3e898007b2b'),
    'fuzz15-solve-h2': (0, '052806eea000be181fc17ff3dc8a4c337ccc3ea3f2c11411852420a9f14261e0'),
    'fuzz15-policy-h2': (0, 'd834858b6ee18890bfaab98a3ea2b64112f2b143259103bd9d136bd6c23f4e53'),
    'fuzz15-check-h2': (0, 'f55b4def4e97fb0eeb3e3980d38d7326a5ef96e23d0a6a8f5e41d020e56f0487'),
    'fuzz16-solve-h1': (0, '88ec86c74869fad147f283b6c276ccfb29e3856b06716b17be7cbbf8424fb0f2'),
    'fuzz16-policy-h1': (0, '6f68c9c78e168f76ef7cf3bd88f191a03b4a18d8072b42e1b3d6d2d708577772'),
    'fuzz16-check-h1': (0, 'c56a750295fdda034bb28c6cb5ac6c5a523a8bb83fc5ea3dfc6459e5ccb5faf7'),
    'fuzz16-solve-h2': (0, '758641a8eebec3b586903166b6ad14f1fac7be12dcba5e9c7f3b2dc6669fc1fe'),
    'fuzz16-policy-h2': (0, '92ef6398ad42284860ccabb1ccdf58143501068f506f1c768e2609b809967098'),
    'fuzz16-check-h2': (0, '7136ec7ecf03a16884b5eb58d354f54ad39f0c46a144f0afc0cfc4a5d0a8a07e'),
    'fuzz17-solve-h1': (0, 'f716e395dca2286f835df67fbdbfaf7d6a2c2bb696692a49add8d39b3d591471'),
    'fuzz17-policy-h1': (0, '6cfffcabe7468cc34143f56558b5ffb2e9eef7547dc76acdd1be697b57fac1a7'),
    'fuzz17-check-h1': (0, '4d0e46c857d0520013e6acfb46007830efe06d295dbb2e7c677dbb9855fbf869'),
    'fuzz17-solve-h2': (0, '94bbcb1ea860987092110188327e3c476590e7664cb16573b7590b20e5a4069a'),
    'fuzz17-policy-h2': (0, 'a7a9790f40be079c9e1138851755281b91bb62e7164393785d34fc5208b9b9b9'),
    'fuzz17-check-h2': (0, 'bf69ae6d451d9aa9d22159332b3794e3ecd6a747739a4d16206b1a6becdf6b05'),
    'fuzz18-solve-h1': (0, '318310b7adcb374ea2d8731bd18b279a035c42a4c307ffa971a9c84362c4fe1b'),
    'fuzz18-policy-h1': (0, 'e9bf109dcd1ec5c097050cc889ec5c863931ee7212fbabf9ca041158b071bcb2'),
    'fuzz18-check-h1': (0, '51ad1f85ba85ff5fdd557d5533210545a75378d25143085c78b1c3e898007b2b'),
    'fuzz18-solve-h2': (0, '6803c1202c8aa9bc517a9db189c9cfd65b4a01f0a13b701ac038a247f87f16a5'),
    'fuzz18-policy-h2': (0, 'd1d407b4260034fd414078252cae06c8036e3787566f65272df1239d4fee88fb'),
    'fuzz18-check-h2': (0, '7cf4ce1bf7cee6e7aa25cf1e9f2045ff00ca7a07aff1734ce241120b985d7151'),
    'fuzz19-solve-h1': (0, 'c88a0b8ed1ff603943fb157cd8963f45106d6ac8dd280fc57286b1859e03973c'),
    'fuzz19-policy-h1': (0, '76da4c72e184cc8486db6d728b722f4285fa540f64cac7c1f335f4704562a354'),
    'fuzz19-check-h1': (0, '72cf5cb81877731217f2d7600a646cd45506e97b2158b00947f284e526ec8f75'),
    'fuzz19-solve-h2': (0, 'c51620c5f83ba3b6833ca715b5e41f9af98c589ef43684e180ebd6ab1555bace'),
    'fuzz19-policy-h2': (0, 'c1ae472d8f0ce4467bef20b74465427ef6d3a16edf60ae7924671376e922c986'),
    'fuzz19-check-h2': (0, 'eaae08b36b20a6097f1e3c127e12ad47e92e85a9825137d6b70d63665f7a4fcd'),
    'fuzz20-solve-h1': (0, '3558225abfa9613da37cc6fee6dcb4542a343a297d3698d71fa9cbb59cf996f7'),
    'fuzz20-policy-h1': (0, 'fcec4d94d73be1302d73941bb4905e90b21bb66812ae41634be9103f8027a680'),
    'fuzz20-check-h1': (0, 'ba6c345a4b3a87f056e4439826a948ab0dbf3417ef94bcb81a626dcc2d295bb7'),
    'fuzz20-solve-h2': (0, 'bc5007d734bd4d9f046b784bab4361ad98d7ec469294f6927444d531e930f2e9'),
    'fuzz20-policy-h2': (0, 'b204fce28bc6a4a37c57b53cf64215ed74c1a86e68aafd8b0f96f744104ab6a5'),
    'fuzz20-check-h2': (0, 'f365ab4f9d4db8a991c906eda52482c02f32297a8bda1bebafe34fda566a820e'),
    'fuzz21-solve-h1': (0, '6a50d80ad61eba25ced35b16043cf5607b7bed0be2fb028f253558725bbf0f01'),
    'fuzz21-policy-h1': (0, '163484427dc0a813be38d97cf8f7dd1a036a5576864a8e5c5593f1e1ef07b743'),
    'fuzz21-check-h1': (0, '9729b28b8c75ad76f820dfe626b26344a96b26308efb9916a292c02cbcba1d4d'),
    'fuzz21-solve-h2': (0, 'f6a60d2bd9e73281ca2858c69b50ba6ac77db160f25834d2a4d4e0402f7b819d'),
    'fuzz21-policy-h2': (0, '69147b9d960155dce16fb69d394f383ccf84ea030f59db2a608ffcdc30408d6d'),
    'fuzz21-check-h2': (0, 'ca32d2f12afc3bbf596c0a0770390443aa700b0bfa49a25318dfe553a6b96718'),
    'fuzz22-solve-h1': (0, 'b19d37d3081415fc9bdb27adf8ba576ccf0fdf594574e2779bb91801c5965531'),
    'fuzz22-policy-h1': (0, 'bcdb7839897bacc05416d99ebce0b864d9ea2fb4ef9df85c62e79adf277c8c8e'),
    'fuzz22-check-h1': (0, '4ab87db83b983ad7a0cf8cdf842466e7dd5fafe42862f4039936aaa2796a2779'),
    'fuzz22-solve-h2': (0, '99acb9ff92ff2a0eeb4a541ace16ba2c9ae41d9b56c1685ae10ea59f10c69f71'),
    'fuzz22-policy-h2': (0, '1c270a3de0d7efa4ecd82e90b9e5d5068aeac957e640416b646515918f45edb6'),
    'fuzz22-check-h2': (0, '4ad562f350fb4f137427c9f4f658e42048295ca07191505fc251b8a6230e9c45'),
    'fuzz23-solve-h1': (0, 'a1157f997f5a7cfc53825e08a2284a7bc6a3df0835463a298eea7563b56c6275'),
    'fuzz23-policy-h1': (0, 'd5fc12bfd34be8682571fa431533c68f85dac540f7f3ee16688b4e59df5613bd'),
    'fuzz23-check-h1': (0, 'be67b0f8f578ee5ba86add9d1c3ccc876ed1b09fc9eb051f3b78f24cd51a02ab'),
    'fuzz23-solve-h2': (0, '4e06602983c6798a36e7d348bbfbbd71fb3f86e26c9f95e942e87225cd43ae15'),
    'fuzz23-policy-h2': (0, 'e8e4f2ca77a2aacf6698e740c16f207e9600e1eb4f7604147ee804795f3f376f'),
    'fuzz23-check-h2': (0, '3d73b88984b0360e7d6eea3818e8b36c674089bff9d821403a0396704ad221b0'),
    'fuzz24-solve-h1': (0, 'e281f060ea94eda4a5f021c98ed82c2161434b276d74a5bbfefba5dfba90f106'),
    'fuzz24-policy-h1': (0, '7abf47a6ad07ff19369cfe2809224706a2227c5ad3fdc1a9bef56418fc5c57ae'),
    'fuzz24-check-h1': (0, '10bc025b84d610508fe7303337407c807a2fbf8b6b121c913e231c20100d1b56'),
    'fuzz24-solve-h2': (0, 'bf3291574d93c97260c287699d9b90c56d0ccb6ddd9dab384cbb7a01e8e7f3ab'),
    'fuzz24-policy-h2': (0, '10e899366b1409c3a8a2c3237f2dde23983c576828e60b983efdc65357edd128'),
    'fuzz24-check-h2': (0, '2b7cb67f5196ec68a95455b82fbabf0fbf7c177f1b4d282b875e39840f095d87'),
    'fuzz25-solve-h1': (0, '7b21369748148e02d3335173246a381c8db67fbf626983f69be8b49acc56d161'),
    'fuzz25-policy-h1': (0, 'dfcac2c4121a4d16905d2c1373a039bad9a7d19f8f38157cdd0319e55fdafada'),
    'fuzz25-check-h1': (0, '4fb8667f256835567fb57968e962d5cc84b76f10fc0ddf7174a55651a98dfb86'),
    'fuzz25-solve-h2': (0, '2c7be23d581a99853d90938524ddd8c20c2c18089b8c1a6836f66b04534c8606'),
    'fuzz25-policy-h2': (0, '9f3319fbacd7d0e29b92c28b8360a17b5f46054c4b9d30569d6db63738ef1132'),
    'fuzz25-check-h2': (0, '7c07132b4091450ec05b8ec8b695cab42ebd278fc15ca96cf09238c579c27abd'),
    'fuzz26-solve-h1': (0, '801e5ad7ef2ed0ad605e7e4a922faabf786b375ec0914493e39e7c75dfe82ae8'),
    'fuzz26-policy-h1': (0, 'f3930afeeffd00a217dfff1d27fd67ce16e2d1cf15f6837b52225970b87e64c5'),
    'fuzz26-check-h1': (0, '7da6eaf5c5abcb115ae0cb8ff6d1361a3aa8328742b6c558815f0c46d097d877'),
    'fuzz26-solve-h2': (0, 'b48faa7426e470f01617b500214c45c59b6c6d7993dd8aa0b5a0e81e299e9000'),
    'fuzz26-policy-h2': (0, 'a09fc12748f62f9cfd1b101bfa0df96a1fc9b053873cc5651a478a83a0d5a506'),
    'fuzz26-check-h2': (0, '205463753a4b7dc155313b9d915c8a2c897a43d4851dbbef8d6e8f3793f5c8e9'),
    'fuzz27-solve-h1': (0, '7263e63268cbf2439e48a45489346facb4e13a57fb9136ffe4d5ac3ede450d88'),
    'fuzz27-policy-h1': (0, '151eddc21906f7eef14508efe60660c6142da9d705777f5de7d4670a7178ce16'),
    'fuzz27-check-h1': (0, 'be67b0f8f578ee5ba86add9d1c3ccc876ed1b09fc9eb051f3b78f24cd51a02ab'),
    'fuzz27-solve-h2': (0, 'e15f80238e9add973de48cb31614c433c06cfcd119fb8e5731e18f7cb2c3d292'),
    'fuzz27-policy-h2': (0, '63e52322d26116b17a60f2e4c3c0ca05b22dc7a0c2ffcf075d842670729b0373'),
    'fuzz27-check-h2': (0, '3d73b88984b0360e7d6eea3818e8b36c674089bff9d821403a0396704ad221b0'),
    'fuzz28-solve-h1': (0, 'c7c5eab1b704b5c87da81c29f680bd0a38661277a4e04ebdf6190fd04a4234c7'),
    'fuzz28-policy-h1': (0, '3c2f17fe6c2aaf78e4d7e0a1f0c3a3be29d6dbfdfbc4520f45934074b7ef628d'),
    'fuzz28-check-h1': (0, 'd873954af700a87b40ffdd3b9a327728a3a6723eeb13715f863b6c20540f0664'),
    'fuzz28-solve-h2': (0, 'da40941b65ae4b00857e43ce5d7e1f12d9b392ed2f1bcbf75fa97fab01eada6d'),
    'fuzz28-policy-h2': (0, '78e4affc4af714aa94907aeacccbd745430b53a3f323e896c918b8bcdb700a7e'),
    'fuzz28-check-h2': (0, 'dd2079a95ad1dedb625afd6028250b93b7a483048b68fff27e2519e427fa0265'),
    'fuzz29-solve-h1': (0, '82ca452b5bdc4595b57765409eb4a391e27979526c75198d1cdcc97e8a042b05'),
    'fuzz29-policy-h1': (0, '37b0ca3906fd0803fd96502d58bfcd4f682d5b750614f6ca6099d7067d046071'),
    'fuzz29-check-h1': (0, '9875f0fb96c2e945be627895141ceccba19e0467d60325eeb956a74f1793c829'),
    'fuzz29-solve-h2': (0, 'f6e8736b8ee195716b0909267e6095a2d5696bab2989164ace4ce9fa140e0bc5'),
    'fuzz29-policy-h2': (0, 'a802fa25c83356ad7847d861d301db485b4f7376faba5033e9ce907b51b779bf'),
    'fuzz29-check-h2': (0, '7aa7e771a1ea853cb17a243ba9f6c2520a2c721fae9ca940656724be0c6f30c1'),
    'fuzz30-solve-h1': (0, '1f25d2f424834d58c91b15c9f5a6a6bdf5eb91cde23b5cdbb82a56c2e31e11b2'),
    'fuzz30-policy-h1': (0, '06436395687119182c5cdaf1a1f2ab06ec577be76580f955dc084242c1ca9d57'),
    'fuzz30-check-h1': (0, 'c8b43913bee36324b24e025d6d65704dcddc5b0a3e86ad997cf694b1d95c8d9d'),
    'fuzz30-solve-h2': (0, 'f8644b0ead4f4e19837c86bf86a2703f9e29e0326c3b172948e4a091b5b95473'),
    'fuzz30-policy-h2': (0, '1cd1e056ce90f9bc1817d9777ee8f7dbedd6e71d70a774bcaa65d304f957e763'),
    'fuzz30-check-h2': (0, '47663dd6e7ce1291596ccbebeaebfe3fc4fdc5d109d1d0c0cc222013d97f03ce'),
    'fuzz31-solve-h1': (0, '3f697f03c251f896d757cbdf1741b64bb853bb9b7d1c23480877d2c494b5be27'),
    'fuzz31-policy-h1': (0, '19fb9085e42d93e9a44e9f350ebfb1d848aba125ff8f72ebaa62c3c09dd93450'),
    'fuzz31-check-h1': (0, 'cdbd5986b1dadecf50d0df9e92a7d3a1712e889f00361d82780f3bfce7c454b8'),
    'fuzz31-solve-h2': (0, '5f354659e669061ba488d80aab90feceabb472f6d820943285f751caa697fc60'),
    'fuzz31-policy-h2': (0, 'ca6935fbf7e6ba7dacb05f2b94c3993f6559f89312b1a77a17c218b118b9c7e1'),
    'fuzz31-check-h2': (0, 'f88a77e462aa621d34a3155f3a5bf8b7cd9575783cd2cc15c412c4df54764db5'),
    'fuzz32-solve-h1': (0, 'fa7020a0adce775f5fd09b5ed79f2037fac46dc3102820da69a5408a640ce3f7'),
    'fuzz32-policy-h1': (0, 'a218fc10c0a4080fce8890c44716cb1b43260dd290f51351f09e6ee44400364f'),
    'fuzz32-check-h1': (0, 'a8e39369c37449aa1dfd14ae8da9a7f72839ebd3744efca1714692ec40b83338'),
    'fuzz32-solve-h2': (0, '5db527bc7dcb120ee4127aa887fa2834431b06f57e9bb00e3bdab5a17023722a'),
    'fuzz32-policy-h2': (0, '89af3ca9ad1493ba942bad2b0f0e0bf55c2cfd5a14fb245239563eff80ad081c'),
    'fuzz32-check-h2': (0, 'a082cfb772486420948d8efdc67d0799557a96a0e8089f54702da86010f32502'),
    'fuzz33-solve-h1': (0, '730b7cfa98bce1261e95723efa14701d70376df13e80f04249e57f59ab4c9b39'),
    'fuzz33-policy-h1': (0, '0495e39c42e8b6e997add81244d12dd2d95b681e9eabcc28fca823aa9fbf18bb'),
    'fuzz33-check-h1': (0, 'ba6c345a4b3a87f056e4439826a948ab0dbf3417ef94bcb81a626dcc2d295bb7'),
    'fuzz33-solve-h2': (0, '7c429bc2f8d602bb47b11449fe7af79b06b8d65239bcd2666f3e40d0560d060c'),
    'fuzz33-policy-h2': (0, 'd73ecadd5014170b542ff403d0d66ed797ad0075a6ec47cc16c3de59799dc1d8'),
    'fuzz33-check-h2': (0, '59a4e93527392a1d178bbf97d84e7fb8f1d667ad10d796720770ba87df923065'),
    'fuzz34-solve-h1': (0, '502b623ad8af8ca46bde301c936e48fc8c04fa5c2e3396b7825c1bcdb1103197'),
    'fuzz34-policy-h1': (0, '8de2bc72ea1d47dc785840503c82eff5e325d326dccf01e1f11a9151dfc287ab'),
    'fuzz34-check-h1': (0, '062b48e2b35c45a2823b0d922914fe91647584db127da6da4b55c6605c68e3ee'),
    'fuzz34-solve-h2': (0, '74dcb3ef1dc4500caeb3e0862228098141c9b0fd71c8e49778ed187ecbd0f41a'),
    'fuzz34-policy-h2': (0, 'd3e26eebdfac53dcb356a630525bc600fbff3816f152328cec71cfccd2215d6c'),
    'fuzz34-check-h2': (0, '63c8ac4cdb3dd8d83bdd73ea12c7929868523c099d226d2803d2347a1425e137'),
    'fuzz35-solve-h1': (0, '253800681a1b6309a372aa8fe63c178f0338feaf583b3538f8f48bfab9ab4373'),
    'fuzz35-policy-h1': (0, '109a96bfa593fa614b2fc02583e6694eec75eb6e1455b3984318e33a2a9949a3'),
    'fuzz35-check-h1': (0, 'c809051c61f5f5b7624944484b2157ceff628c9dfdb77b88e559d6e4fa577e17'),
    'fuzz35-solve-h2': (0, '7ad6b9a129f1529662d7f64a745b549c0eb105d5b4b08a63a91bdfe3f70129d4'),
    'fuzz35-policy-h2': (0, 'cfbaad4023c5add2cdbd48e2c1afcd67ba6af00a222ca6235c5b4d3e395c7669'),
    'fuzz35-check-h2': (0, 'f7f18cbc5ebfa292dc26cd018b7688a5a2666058c18392425285a5ed7163404a'),
    'fuzz36-solve-h1': (0, 'ae4ddb0371c067fd466926efa2aada09fd197f43a7ab27c5da33adc2a0b7aac9'),
    'fuzz36-policy-h1': (0, 'f0d36a7d90c4afc1622853f94217abf8ca547aae99c3324eb8123f5766b211c9'),
    'fuzz36-check-h1': (0, 'ee3faa07191fcdfbfc8a171ebc07f31107c92d211e6c08741a637aafd2b247d5'),
    'fuzz36-solve-h2': (0, '45b1fa6e1573e3555eb6f41fda5f29ef84beb64a10f66276bf499f2d9a821227'),
    'fuzz36-policy-h2': (0, '58b5fa85f0ecf5edc3194adf5566f4456bc918c0b7cbaf0d37aea281a0c132a6'),
    'fuzz36-check-h2': (0, 'f449121571f1bb43b47675bffad15ffa93b455671ee91b1168710de22606a031'),
    'fuzz37-solve-h1': (0, '0ec33787a1e520410dcef1da325815244985d9d24f0b5f402cec6b77d34b641d'),
    'fuzz37-policy-h1': (0, '8e5f91f4a8884f8660b288f9598692f908d90a010e0dd200b02488686ee277b0'),
    'fuzz37-check-h1': (0, '9d8c80853d2ee52d315f1b4d214ea169db40d0319a35763bd0e16d6f4e373fa6'),
    'fuzz37-solve-h2': (0, '5e594224b5d9fde222a1d96e50c09580525e4796586272eee7c4ba70805ce257'),
    'fuzz37-policy-h2': (0, 'cd0c821a18c10edeb570ee6e51e0d162d3a8f8fa860747e49220e424f92a09a3'),
    'fuzz37-check-h2': (0, 'f6820e84a01e5276b7788e7eee6c69dcbfa84a70f5df7bb9b2e91957ec6d0365'),
    'fuzz38-solve-h1': (0, '72ee9e14957cd8a1c0886b9b45ef89bcb010bd291a2f7a64be90e2399318c8d7'),
    'fuzz38-policy-h1': (0, 'fe3777ef18f23c01ce82c5a979d4542051b498c298ce9072df854dd08bdd3278'),
    'fuzz38-check-h1': (0, '7601e9694c54746e34dce00a6bf5dfc8240f90ac1ade11fdbc5c0c92f52b5bb4'),
    'fuzz38-solve-h2': (0, '40ada5395e6b472d1c59838323e73c1dd6b5fa700f465f951b08f4ad1672c6ab'),
    'fuzz38-policy-h2': (0, '26913ef6e2b098be5cc8389fa3ceb16d069a6c16e8eaacf7c7f286bb19f53392'),
    'fuzz38-check-h2': (0, 'e6bcc3a6cb28fd4cb5c90673336441aa01a057d068e83b43093e8944d508ba73'),
    'fuzz39-solve-h1': (0, 'adeb5d9475c18e896cad3cf854257293ce0da43a79ecbee24df39c97d6ab65ef'),
    'fuzz39-policy-h1': (0, '67ac346cc0058f53e8749162881da69721856056fd87d36c95462a6ec989d751'),
    'fuzz39-check-h1': (0, '3302c8f884b3b99e15006d5398a33586d0a02b98b09afe9e61b55a5ef0f8cbef'),
    'fuzz39-solve-h2': (0, 'c0fb21166b0191db12cb78ea26b75335f48fc828892e861c6c774ecb7e666a33'),
    'fuzz39-policy-h2': (0, 'fdf89fb1aa239d68b7df2c3772c73895d9f8d283bba854814ff7eb37e4377d39'),
    'fuzz39-check-h2': (0, '5eebbe33d4f9b90f6d87ba6b0bdbc87baebe724e579dd0980206832fd721d24c'),
}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return _record(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_output_is_byte_identical(recorded, case):
    assert recorded[case] == DIGESTS[case]


def test_every_case_has_a_digest():
    assert set(DIGESTS) == {c for c, _, _ in CASES} | {f"fuzz{s}" for s in FUZZ_SEEDS}


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        recorded_now = _record(Path(d))
    for case, value in recorded_now.items():
        print(f"    {case!r}: {value!r},")
