"""Golden output: sha256 of every subcommand's stdout, and of stderr plus the
exit code on a corpus of argument and computation errors.

The theorem1, lemma2, criterion and scan hashes were taken before the ratio
sets became array-backed; the primes, gaps, mertens, constants, lemma1,
selftest and --help hashes and the error corpus were taken before the report
payloads and the argument checks became table-driven.  The json and csv
hashes of mertens, constants and lemma1 were retaken when the prime sums
became correctly rounded: M at cutoffs 1e4 and 1e5 moved by 1 ulp (the old
sum rounded the segment holding only p = 2 on its own, then rounded again),
and the values derived from M moved with it.  Any byte that moves in the
json, csv or table output, in a usage message or in an exit code shows here.
The criterion corpus holds one twinless window, (10000000, 10000100], whose
sup is the strict 10000079/10000101.  The three selftest hashes (json, csv,
table) were retaken when selftest stopped printing its run time
(elapsed_s); every other selftest byte stayed, so no output is masked.
The `selftest --seed x` error hash was retaken when --seed, --sets and
--jobs came to parse like every other integer option: its stderr now ends
`argument --seed: not an integer: x`, where argparse's own int check said
`invalid int value: 'x'`.
Usage and help text is wrapped at COLUMNS=80.

To regenerate after a deliberate output change, run
`PYTHONPATH=src python tests/test_golden.py` and paste the two tables it
prints.
"""

import hashlib
import io
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from twinmeans import cli

GOLDEN = [
    ("theorem1 --x 1e4 --c 1 --format json", "c4c626d1880ca347432e2fd5b707bfd4b38ba9d9f796769dc3b379bbfc179b14"),
    ("lemma2 --x 1e4 --c 1 --format json", "094abe2593837aa4aa9fa3c4348cd6306e122055c7e20c731b29af3d3b67fa22"),
    ("theorem1 --x 1e6 --c 1 --format json", "eedd45db8b3e4b9a6952e20c8813ff54061c5442b708689cf516eff6ee3a576c"),
    ("lemma2 --x 1e6 --c 1 --format json", "a0ecb3c7bf3c43d9719c3a1d08581b790ce240e99d092d8baddec250f950b0d4"),
    ("theorem1 --x 1e7 --c 1 --format json", "029bceb3d13cb767d2801a16ec38caef06eb3109d0a9acf74d8e5fd2bed0afe5"),
    ("lemma2 --x 1e7 --c 1 --format json", "80b873590cb98250b7c74507db2d49fd354c3e55d7b8ff666919069922b3efc9"),
    ("criterion --x 10000 --y 10500 --format json", "baf51b27d8f400714ee85d0e769dd161323ccc443a063434c6fa799232127bf8"),
    ("criterion --x 1000000 --y 1000500 --format json", "ce8b80f007c1f43a0ae30c805e3e4db607bc0b2b235f468f1d01acbcf1858daf"),
    ("criterion --x 10000000 --y 10000500 --format json", "e2450c82148e8fc8806dce1460f8095addc15b35a9b55e47e76b270373aa72b9"),
    ("criterion --x 10000000 --y 10000100 --format json", "b0fb2636e77c1b675dd0fc5acb2cbc1b4697ec96e7cf32ca701edaf3bf3df37d"),
    ("scan --x-values 1e4,1e6,1e7 --c 1 --format json", "b5131eed5bad0f3c31aa3231ec0a08caa40183da9ac9963461f311715eb81a91"),
    ("theorem1 --x 1e4 --c 1 --format csv", "fec58ad0b4993ac9cd585279de26d721c376969d3e860871f23a217713485154"),
    ("lemma2 --x 1e4 --c 1 --format csv", "85522ab125a67dad0d86fbd31752fd06739f0f9b5310556845dac49c63926fca"),
    ("theorem1 --x 1e6 --c 1 --format csv", "ba5efd6a670748778984d097f8ddecf36c9742f37dd5ccb97a39ca8b09ea7b6c"),
    ("lemma2 --x 1e6 --c 1 --format csv", "91cfc6191b1ddc93f19f4b6e6cdf0e17df15ca2509a9950bdb21a4a81ddee2ba"),
    ("theorem1 --x 1e7 --c 1 --format csv", "7edf800de1f2a734b58c122489ac3ee312b25516e7f8ec1129e2fb3800310658"),
    ("lemma2 --x 1e7 --c 1 --format csv", "e5c470b3b66f9f9eadfec9a5073fb4e6407c46fafcbca3f4c72c97010db03b5f"),
    ("criterion --x 10000 --y 10500 --format csv", "d0acd7d706c931c8bd92cd084180d6724466741f4fb7e782b1fba8d0e585e12c"),
    ("criterion --x 1000000 --y 1000500 --format csv", "968d2f6367cfefe1dc37087b7e0babfd615dfd1ebaee0cfaf8062ea0838d9ea5"),
    ("criterion --x 10000000 --y 10000500 --format csv", "70129fdd8e1093d5880ab32c1aa2c84a790741fa50083c1471e2ca84dc983a03"),
    ("criterion --x 10000000 --y 10000100 --format csv", "f9eee881483339e5ee7cfa6c3fd68307ad8444283266d6c8541539e137821d6d"),
    ("scan --x-values 1e4,1e6,1e7 --c 1 --format csv", "079294f1b441ef3d3de6869d8c8623929bc02a36ed98d6e028c99866e3f01847"),
    ("theorem1 --x 1e4 --c 1 --format table", "aa5d0ec6931e882b2782a8c8231a4186996b0efd06b73d99f812d5b9195b7541"),
    ("lemma2 --x 1e4 --c 1 --format table", "91f1e69db8302c9e4a8834ef7c6105431e3fa8b495da302174b509e505e22a09"),
    ("theorem1 --x 1e6 --c 1 --format table", "8904a9d2069bf754050122f418bf1c97c22a6af385788a851d23254eec994226"),
    ("lemma2 --x 1e6 --c 1 --format table", "47d83d6e05f97c9d294b3277de94dda7b589c8674928dc8023f4040cbab9d26a"),
    ("theorem1 --x 1e7 --c 1 --format table", "8782274c67e0252a489098d87072848172d0b7245371fcc4562223dedb301b79"),
    ("lemma2 --x 1e7 --c 1 --format table", "88479a8c4ddb1df78ec84b5ceaf61d7cfea387b0792390343c7ded24f5586404"),
    ("criterion --x 10000 --y 10500 --format table", "270b27aba6ccecc1a90439bac8bc8675662d34380f92834467484c7a1a4ff0b0"),
    ("criterion --x 1000000 --y 1000500 --format table", "9587cdc8aa2c350b7ace33439a9cf3f450444ae92a21ba2347701593b3c3d9d2"),
    ("criterion --x 10000000 --y 10000500 --format table", "89657ffcc772972bebf8710bf00f68120ea585bc67c9fdc36b03c26b787ee2f2"),
    ("criterion --x 10000000 --y 10000100 --format table", "a96af2e0971b20eee33650ff30536bf2ff4455305e8f0707bf16eb933a0b75c7"),
    ("scan --x-values 1e4,1e6,1e7 --c 1 --format table", "cc376c192e2d119336ff45ac440d52c8d2444d097ae406d49fd9271949e5a612"),
    ("primes --limit 1e5 --format json", "db8297a4ca19399c82fa63a82d34192d748fbe3bd13aede4f502781895c96ddd"),
    ("gaps --limit 1e5 --format json", "5b5123d449a558af420bca5873eb26c6110973acb670097d54608323ad054ae1"),
    ("mertens --x 1e5 --cutoff 1e4 --format json", "dab9dd548e3af66d559032017dda8ddbaaee07105c6a7b71e1a595ba4ed65970"),
    ("constants --cutoff 1e5 --format json", "67f1d0f9e792fc4057da633ec05785a8c42fee0d55eb39af961f9d590480e9fe"),
    ("lemma1 --x 1e5 --cutoff 1e5 --format json", "708b43c158657aaef510cf0fc5f9f03bc5383d572e04fe93001ece663459578e"),
    ("primes --limit 1 --format json", "1be5f80f28b4f5e2d263b40dab8b1b5f1046b5746a3a8312bb2f27813d4cf281"),
    ("selftest --seed 0 --sets 5 --format json", "9aa779d8e271d723af23148c9475171f53047c1b230d9aa2e0ae0a5f3df0705a"),
    ("primes --limit 1e5 --format csv", "c2ad5eb5d77eb4e9233fb5490c5455b1d86de6a4f836b8b7cb06bbea33e2367a"),
    ("gaps --limit 1e5 --format csv", "8e049f5b7d4fc84d02c6b214e3019a25dac937312d609cb36160f1e201e184b9"),
    ("mertens --x 1e5 --cutoff 1e4 --format csv", "568f3eb7357507fa6da02b53da8033b371edb66e8ba8a56e4cc7f8ad198dd177"),
    ("constants --cutoff 1e5 --format csv", "048768d098841115979b072253987790c4f6d3fb71d755d59d430202cf8244b4"),
    ("lemma1 --x 1e5 --cutoff 1e5 --format csv", "b2bfcf67ffdc5c5b68ae7819db002c58ffcaf9832684ca8364d0974d92b75ea4"),
    ("primes --limit 1 --format csv", "1a49db94606b06dc08a1d178103d08f3a7384a12f20c07cbcb7b2ed1b65a424e"),
    ("selftest --seed 0 --sets 5 --format csv", "981532d7342be524660faace87e94d4832c8d8d07f6817e78215649f3bd60999"),
    ("primes --limit 1e5 --format table", "bb868ad75131c9d8dd3a2430a4f14572053c8377f6ef807b7a93ace85efedd60"),
    ("gaps --limit 1e5 --format table", "998d9f49206864e887c0652c678fa51f422bffd15610c7e7a274f443d47a8974"),
    ("mertens --x 1e5 --cutoff 1e4 --format table", "41e84666d1bc0d72e24de335a1a640083b8b03ce8dc47ec6f9796f2e0148cd13"),
    ("constants --cutoff 1e5 --format table", "620b72f15e887fcb3550775b6055104eacb6c6950d449be0687f060ce4604c76"),
    ("lemma1 --x 1e5 --cutoff 1e5 --format table", "f89d241a5f7d6420520c254c42680eb6db213b34a5ad112bee16fbd60cf577e9"),
    ("primes --limit 1 --format table", "0ae8bc598f0084fcfed69c3a2fb647eea597a035ce75072c507709eefce77bb8"),
    ("selftest --seed 0 --sets 5 --format table", "c2da95bc5cf63b4ef11ce52b714dd2372989042ce3095d4a1d6f600be1af9d9f"),
    ("--help", "2a51281c41275d27e12da316beb947c5cb72a3521981f80669e9564b4351ee79"),
    ("mertens --help", "f63220a6b15e916cb9435516adf0073d5c9da11f7b08513f5df158abb6bbf0a1"),
    ("scan --help", "8f4b1e61ed88480eb45a47f61e3551c71c98f328ead2d1a71a09306c01436b9a"),
]

# argv, exit code, sha256 of stderr; the first fourteen are the argv of
# test_cli.py::test_argument_errors_exit_2
ERRORS = [
    ("criterion --x 20 --y 10", 2, "db1bc774c848732270314279800798bf64dee8501c95c0c56a3b8b8953bd109f"),
    ("criterion --x 1 --y 10", 2, "45aeaea346597d22644642aa8bdf82e5063a1db56ac6aa47281f065cf0495f93"),
    ("primes", 2, "4aaae7411944e0b7de7c1cbd1321d60fafbaf0179203bc832f7e532d715ee642"),
    ("primes --limit -5", 2, "709a512a5c8de8f1c305d51d10bfd0a62f7a357ed8fcf9a90a3c05c88012dcc6"),
    ("primes --limit 2.5", 2, "1203696459d0f8b3265db1feeb703de5dc61514c2d6652ebd68ba2a6e85f7915"),
    ("gaps --limit 2", 2, "238464b887e5922b51bb768e85fe110be402708506ef24937af7f36e640689a4"),
    ("mertens --x 1", 2, "45aeaea346597d22644642aa8bdf82e5063a1db56ac6aa47281f065cf0495f93"),
    ("theorem1 --x 5", 2, "7e6d658b1d5e09e8ef04c47d64018eafa6d34feec6483ebec2949bd959729b5a"),
    ("lemma2 --x 100 --c 9", 2, "d699a2add4ad45b58e805c94662baed05d3613de420ec3ef64bfd3676fef7ab7"),
    ("scan --x-values 100 --jobs 0", 2, "142795f811e2e88cfe1b1dd3afedd0a2b80d2d54b11af6084af676dbcfa26bf3"),
    ("scan --x-values ''", 2, "5e3e86df87dbd0d9c4bc990b973447e4cb0dc8d0cfc99287a54b95167490e2e0"),
    ("selftest --sets 0", 2, "ea3ecc237d801a724337df35023dfa4d3452523f0165f9fe05c87b3a1421dbce"),
    ("no-such-command", 2, "94f23b84d4ae382e6175dd88780a79a476fa1824238a8aa5acec385d752ef664"),
    ("primes --limit 10 --format yaml", 2, "3af9ec2250ac9ca39c8f5bf63bb20ffd093d0f1bfb02ce61516c60497cd91ec9"),
    ("criterion --x 10 --y 10", 2, "db1bc774c848732270314279800798bf64dee8501c95c0c56a3b8b8953bd109f"),
    ("criterion --x 1 --y 0", 2, "45aeaea346597d22644642aa8bdf82e5063a1db56ac6aa47281f065cf0495f93"),
    ("mertens --x 100 --cutoff 1", 2, "e24dc531c12d9019890fa78cb5cd19602ee0893cf884b61336743e7920e3bb5e"),
    ("constants --cutoff 2", 2, "a8f3d1c6617759c9094c6b68983cbb390eab62e4e3b65fb25c091d1eca7659fe"),
    ("lemma1 --x 2", 2, "4ba9e3f9b262759c43fa9c06679ecd0850812d197c0c1ad7a50cd5c7020a3e32"),
    ("lemma1 --x 100 --cutoff 2", 2, "a8f3d1c6617759c9094c6b68983cbb390eab62e4e3b65fb25c091d1eca7659fe"),
    ("lemma2 --x 5 --c 9", 2, "7e6d658b1d5e09e8ef04c47d64018eafa6d34feec6483ebec2949bd959729b5a"),
    ("lemma2 --x 100 --c nan", 2, "d699a2add4ad45b58e805c94662baed05d3613de420ec3ef64bfd3676fef7ab7"),
    ("theorem1 --x 100 --c 0.01", 2, "d699a2add4ad45b58e805c94662baed05d3613de420ec3ef64bfd3676fef7ab7"),
    ("theorem1 --x 100 --c 4.5", 2, "d699a2add4ad45b58e805c94662baed05d3613de420ec3ef64bfd3676fef7ab7"),
    ("scan --x-values 100,5,7", 2, "8d815b055b4b929adc34ded6b5ba080a5c313148eeb3bea8a18edd55ce72026b"),
    ("scan --x-values 100 --c 9", 2, "d699a2add4ad45b58e805c94662baed05d3613de420ec3ef64bfd3676fef7ab7"),
    ("scan --x-values 5 --c 9 --jobs 0", 2, "142795f811e2e88cfe1b1dd3afedd0a2b80d2d54b11af6084af676dbcfa26bf3"),
    ("selftest --seed x", 2, "1477e571728ccc800dc95f2a45790eb9e544c3150fa83f024b39693745e3cd8a"),
    ("primes --limit 1e400", 2, "43a3d27d3b4a8b045719f48d61187dd07bffc7fab4ce620f4498d87f6121a4e0"),
    ("scan --x-values 1e400", 2, "47010395add6b3b1523a186d21381caad53d51a8e1f5a7ddcf45dd085cee9fde"),
    ("primes --limit abc", 2, "a7dd4cb2a26de47c3aabde1695eec808251a7247af99535c664c072341044cbf"),
    ("primes --limit nan", 2, "6e2cffc75a4cb70bfcdabc525c6bcda5c202b619baba15403d8b922946b54c04"),
    ("scan --x-values 10,abc", 2, "39f80be2f081274484ef3873e83b4503ffa6c047cf46d8fe525a64175a1ea717"),
    ("criterion --x 24 --y 28", 1, "77a557645a124bfcda90f69dbd45b8874e86a51a5f3d81a48bfea7beecd52da7"),
    ("theorem1 --x 113 --c 0.1", 1, "636335967f16a5df7cb1d3460226ba85aafc6bb890546ba416c53e1453287699"),
    ("scan --x-values 100,10 --c 0.1 --format csv", 1, "04f124906b4231cbaf05f4aacf1c3753a46caedcf81e3dfb0a978f1991f6f6d0"),
    ("selftest --sets 2.5", 2, "b36170d0120997b6e28ed70caf424fa72e0af129ae1e642e986eab8fd070eda1"),
    ("scan --x-values 100 --jobs 1.5", 2, "f53d3acd67ab23ceebf963b2ff4ae104ad9eb681b8c22a36a8de8fdcbd52ae65"),
]


def _run(argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.run(shlex.split(argv))
    return rc, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout_hash(argv: str) -> tuple[int, str, str]:
    rc, out, err = _run(argv)
    return rc, err, _sha256(out)


@pytest.mark.parametrize("argv,sha256", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_stdout_matches_golden_hash(monkeypatch, argv, sha256):
    monkeypatch.setenv("COLUMNS", "80")
    rc, err, digest = _stdout_hash(argv)
    assert rc == 0 and err == ""
    assert digest == sha256


@pytest.mark.parametrize("argv,code,sha256", ERRORS, ids=[a for a, _, _ in ERRORS])
def test_errors_match_golden_hash(monkeypatch, argv, code, sha256):
    monkeypatch.setenv("COLUMNS", "80")
    rc, _, err = _run(argv)
    assert rc == code
    assert _sha256(err) == sha256


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    print("GOLDEN = [")
    for argv, _ in GOLDEN:
        print(f"    ({argv!r}, {_stdout_hash(argv)[2]!r}),")
    print("]")
    print("ERRORS = [")
    for argv, _, _ in ERRORS:
        rc, _, err = _run(argv)
        print(f"    ({argv!r}, {rc}, {_sha256(err)!r}),")
    print("]")
