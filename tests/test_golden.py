"""Byte-identical output, as the README promises: a fixed CLI sweep over
``fixtures/`` must reproduce recorded sha256 digests of each command's exit
code, stdout and written files.  A change that alters any of them changes
what latticekit prints or writes, and must say so and record new digests
(run ``python tests/test_golden.py`` to print them)."""

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

import latticekit as lk
from latticekit.cli import main

from conftest import FIXTURES, bare_order_rule_forbidden

LATTICES = ("divisor12", "m3", "n5")
PROPERTIES = ("modular", "distributive", "semimodular", "graded", "multfree", "jordanholder")

SWEEP = [
    *(("check", f"{f}.json", "--property", prop) for f in LATTICES for prop in PROPERTIES),
    *(("check", "n5.json", "--property", p, "--allow-nonmodular") for p in PROPERTIES[-2:]),
    ("birkhoff", "ideals", "b3_poset.json", "--out", "out.json"),
    ("birkhoff", "ideals", "divisor12.json", "--out", "out.json"),
    ("birkhoff", "irr", "divisor12.json", "--out", "out.json"),
    ("birkhoff", "irr", "b3_poset.json", "--out", "out.json"),
    ("stanley", "b3_poset.json", "--trace-dir", "trace"),
    ("stanley", "divisor12.json", "--trace-dir", "trace"),
    *(("render", f"{f}.json", "--out", "out.dot") for f in ("b3_poset", *LATTICES)),
    *(
        ("reconstruct", f"{c}.json", "--with-bounds", "--out", "out.json", "--dot", "out.dot")
        for c in ("case_n1", "case_n2")
    ),
    ("freedist", "generate", "--n", "3", "--out", "out.json"),
    ("freedist", "generate", "--n", "3", "--extended", "--out", "out.json"),
    ("freedist", "generate", "--n", "4", "--out", "out.json"),
    ("freedist", "generate", "--n", "4", "--extended", "--out", "out.json"),
]

# sha256 of each command's exit code, stdout and written files (see sweep_digest)
DIGESTS = {
    "check divisor12.json --property modular": "5625b4faa9eed92b6ef136564ccaf3b11addf450bf9bf1b9ef010f1f1113ee07",
    "check divisor12.json --property distributive": "5cdfe0256baf50af34300afbd59d8d18cc0985a8ff9b527f7b715b5f2938d050",
    "check divisor12.json --property semimodular": "dd1b95d9b8d34a4ba9e9c562f433f11a62260b3660037c617494198ed2407dc7",
    "check divisor12.json --property graded": "5e55e317e6ef36c200e533322124ee044adef4d607337aff45007ff3b865e82f",
    "check divisor12.json --property multfree": "698bdc29ed1a45df4258f26df4ecb644ba6cb2ab4a79b4d347e696698f6ba3f8",
    "check divisor12.json --property jordanholder": "1e76fb6362b5d36d4f4b3724b0742d60c54929c31f9b1bb92254316e78809752",
    "check m3.json --property modular": "5625b4faa9eed92b6ef136564ccaf3b11addf450bf9bf1b9ef010f1f1113ee07",
    "check m3.json --property distributive": "e318e939949b2510a66f296b9c6591bfcb4a1f2d52406f7ebd31213d73539b22",
    "check m3.json --property semimodular": "dd1b95d9b8d34a4ba9e9c562f433f11a62260b3660037c617494198ed2407dc7",
    "check m3.json --property graded": "0dac0fd5c946f730fda64178f98d0a0247ac631c8239423293490c356f7bc191",
    "check m3.json --property multfree": "35431ed560c9bf5447770604620bbf82f0d33119295002ab359ca4e6a678982e",
    "check m3.json --property jordanholder": "27cfd6009af7c7737195008d647b6df2c923fe1b2752f5c86cdf5e933a705051",
    "check n5.json --property modular": "45d6659e7f6ff69ed2f272737f6bcbc7a97284fc6ea4ec13abae0658c3638ed6",
    "check n5.json --property distributive": "253fa6c513592daca044405d014d7be5b399b342adddd9f234f718ad7ffdf1e7",
    "check n5.json --property semimodular": "1aadd7feb5fcd05dd8c6fd4d610f0353aa0d90410f14882578b8416bfee39f8d",
    "check n5.json --property graded": "43e13630f4fc5d90c867f0f4315f3de3e24784342c6784937d079e6b51529b5d",
    "check n5.json --property multfree": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "check n5.json --property jordanholder": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "check n5.json --property multfree --allow-nonmodular": "35431ed560c9bf5447770604620bbf82f0d33119295002ab359ca4e6a678982e",
    "check n5.json --property jordanholder --allow-nonmodular": "2bf2683b66b15df8d63037711deac7229c45dc7d497df21d0218e64f4e17ab3f",
    "birkhoff ideals b3_poset.json --out out.json": "60af818a84897c922f36f776e39a6c280beead821f19e82321cbad7c88a0f824",
    "birkhoff ideals divisor12.json --out out.json": "58ae96cb120e9666f399272e415a2d66726e84fe084def5721568d0077609b29",
    "birkhoff irr divisor12.json --out out.json": "f2895c8c6eda0c0dab61002e1903ad975587c31f1ee7440978842b79b2997b97",
    "birkhoff irr b3_poset.json --out out.json": "e3ebea6b5fc2bfe002fd8ccc3a2e749318ccc066b65e828dce3961b3b390c699",
    "stanley b3_poset.json --trace-dir trace": "58e13845cd427f193ffa96e4cbe89e9fc8f29dafa0ebf95a953829c7572a420a",
    "stanley divisor12.json --trace-dir trace": "55b76e1417d4504d08109e676424a3ccb6fb559f8558cbc8a7a0b00370af88ab",
    "render b3_poset.json --out out.dot": "c8e593ce2efcf41b17058378a9ee1646e8fe478d3f01c2e294136b209b700112",
    "render divisor12.json --out out.dot": "9551188f306af7ab9bd3d7851954a21b79ccdf327a0fac5b1aa06021047450d5",
    "render m3.json --out out.dot": "1e68a9a086f6f8f825c3f2d704187f3cb5bc2363d6e924c982658589d2e6b4f2",
    "render n5.json --out out.dot": "14a1ba382088126663076b66922b024b894005dd8a29b48cb0637fb1fe0375a8",
    "reconstruct case_n1.json --with-bounds --out out.json --dot out.dot": "b991cc9cea97867247d292dfbc8f9a5fd2165a95cbe639fe56a276c54e8f14b8",
    "reconstruct case_n2.json --with-bounds --out out.json --dot out.dot": "53f1b66cc77e98d520a1c117387f6349089c82491483be163238126b53305d62",
    "freedist generate --n 3 --out out.json": "17d42554ce001966c3567533688f40f22fac391acf04be3b2538e4de550e4e26",
    "freedist generate --n 3 --extended --out out.json": "f578f99d1249c857a1ef40ed1a649f52826dba4792ed553314d266e52804886d",
    "freedist generate --n 4 --out out.json": "47f8e171f4612b78fa1aa94610246029731d86c20334ff28e88cc01b02f27804",
    "freedist generate --n 4 --extended --out out.json": "eccdac69a20e30fb67ce77de9b478c172218322ba00c4d672f8b20caaf013fb8",
}


def sweep_digest(argv, workdir: Path) -> str:
    """Run ``argv`` in ``workdir`` (holding a copy of the fixtures) and hash
    its exit code, stdout and every file it wrote, in path order."""
    inputs = {f.name for f in FIXTURES.iterdir()}
    for name in inputs:
        shutil.copy(FIXTURES / name, workdir / name)
    digest = hashlib.sha256()
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    digest.update(f"{code}\n{out.getvalue()}".encode())
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name not in inputs:
            digest.update(str(path.relative_to(workdir)).encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("argv", SWEEP, ids=" ".join)
def test_output_is_byte_identical(argv, tmp_path):
    assert sweep_digest(argv, tmp_path) == DIGESTS[" ".join(argv)]


# lattices of sets (FD(n), J(P)) and what is derived from them find their
# covers without the matmul; these commands print and write the same with it
# made to raise
WITHOUT_MATMUL = [
    argv for argv in SWEEP if argv[0] in ("freedist", "reconstruct") or argv[:2] == ("birkhoff", "ideals")
]


@pytest.mark.parametrize("argv", WITHOUT_MATMUL, ids=" ".join)
def test_same_output_without_the_matmul(argv, tmp_path):
    with bare_order_rule_forbidden():
        assert sweep_digest(argv, tmp_path) == DIGESTS[" ".join(argv)]


def test_factors_and_self_duality_without_the_matmul(tmp_path):
    path = tmp_path / "n1.json"
    with bare_order_rule_forbidden():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["reconstruct", str(FIXTURES / "case_n1.json"), "--with-bounds", "--out", str(path)])
        for element, factors in (("M", "a+b+c+d+e+f+g+h"), ("B", "c+d+g+h")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["factors", str(path), element]) == 0
            assert out.getvalue() == factors + "\n"
        iso = lk.check_self_dual(3)
    # sha256 of the isomorphism's items, in order, as recorded before the change
    assert hashlib.sha256(repr(list(iso.items())).encode()).hexdigest() == (
        "9a549fc6c9299e7ce3dfdfbaf9ac851c4cb5ead23287d0c255d426c0a14135cd"
    )


if __name__ == "__main__":
    for argv in SWEEP:
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{" ".join(argv)}": "{sweep_digest(argv, Path(tmp))}",')
