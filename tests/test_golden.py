"""Golden stdout: sha256 of theorem1, lemma2, criterion and scan output.

The hashes were taken from the commands' stdout before the ratio sets became
array-backed, so any byte that moves in the json, csv or table output of these
commands shows here.  The criterion corpus holds one twinless window,
(10000000, 10000100], whose sup is the strict 10000079/10000101.  To
regenerate after a deliberate output change, print
hashlib.sha256(out.encode()).hexdigest() for each argv below.
"""

import hashlib

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
]


@pytest.mark.parametrize("argv,sha256", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_stdout_matches_golden_hash(capsys, argv, sha256):
    rc = cli.run(argv.split())
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256
