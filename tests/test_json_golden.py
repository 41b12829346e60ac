"""Golden digests of the CLI's --json output.

Each entry is a command line (without --json), the exit code it gives and
the SHA-256 of its --json stdout.  The list holds every command the README
shows, the stability round of bench/rounds.py at seeds 5 and 13, the
round's `verify soergel` and `verify demazure` operations, `verify
soergel` at rank 5 and at rank 6, the top rank it admits, `verify
demazure` at ranks 6 and 7, the n = 3 box scan, the n = 2 box scan at bound 8 (17^4 = 83521
classes, the largest n = 2 box the class limit admits, with 3701
findings), the commands refused with exit 2 before any
work (their stdout is empty), and the large documents: the 12 rank-5
`schubert --double` operations of the demazure round, two rank-6 double
Schubert polynomials (the longest permutation, which is the seed itself,
and 1,5,2,6,3,4, far down the weak order from it), a rank-7 double one
far below the rank-7 seed (1,5,2,7,3,6,4), a rank-10 single one, and the
rank-4 and rank-5 graph-twist tables.  A change to the library's
representation or algorithms, or to how the CLI renders JSON, must leave
all of these bytes alone.

When an output changes on purpose, recompute its entry from the repository
root with

    PYTHONPATH=src python -m schubstab.cli <command> --json | sha256sum

and read the exit code from ${PIPESTATUS[0]} in bash; say in the commit
which outputs changed and why.
"""

import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from schubstab import cli

GOLDEN = [
    ("schubert --n 2 --w 2,1", 0,
     "f2a2f7cc68eb2cd5509f5e453f64b1baa1dd7d9334ae993e06175a11601c0c1e"),
    ("schubert --n 3 --w 2,3,1 --double", 0,
     "09917e589681c05021fe8d2fc34fc55257a369d6e32405b9ec56f74a70b6b05b"),
    ("verify demazure --n 4 --trials 20 --seed 7", 0,
     "71dd14cdf6d7b7ccabe75241793f72b3b41625ed5950dfed66d4ced18a2fa609"),
    ("verify soergel --n 3", 0,
     "e1454d9d4a5da955615de3cc4d835985c28a3b08160b003f06743efad7ec0b27"),
    ("verify charges --n 2 --m 3 --a 1/2 --b -1 --trials 100 --seed 0", 0,
     "e920dd12eccf094a0431917fcc030dfc49f217cf041f59ff2f59a805ed0f5591"),
    ("scan bayer --n 1 --a 7/3 --b -2 --bound 200", 0,
     "568250c0e921bb7ac89acece63a4ea88789d7807b0feb782eaaa5f638ddb7cf1"),
    ("hn p1 --degrees 5,1,1 --torsion 2 --a 1 --b 0", 0,
     "2d2f66a3b8b7a37e2470ef70ba772be8330aa3a5aa794e28028fc75e0a1703d4"),
    ("derive chain --adegrees 2,5 --N 3", 0,
     "76256f4eee117c3c444c914e6ed5dab5534908154fbc2ebfaffd69fce5222e38"),
    ("table graph-twists --n 3", 0,
     "84bfb6effe35300276a3ef1650fd09b9ff8fb3ced846c455d446152993d45631"),
    ("scan bayer --n 1 --a 7/3 --b -2 --bound 25", 0,
     "3f1a73ee6e760de57770cdf77e40168c5e0cbd77097197d3dce3af36bebe3210"),
    ("scan bayer --n 1 --a 1/2 --b 5/3 --bound 25", 0,
     "eaf3abbd16425ee0f109db418fd71efdafd49c0d2b395c338727a9ec9a814623"),
    ("verify charges --n 1 --m 3 --a 1/2 --b -1 --trials 100 --seed 5", 0,
     "055f6b18f6bd1d0af22d81b0eef4e01ff6ba64c1faf558cd2b80b5e62e71a16f"),
    ("verify charges --n 2 --m 3 --a 1/2 --b -1 --trials 100 --seed 5", 0,
     "e3dc9b46a4251237fc1feba8e594dacadadb3a4b42b59a8bf377763e7d7a89e9"),
    ("verify charges --n 3 --m 3 --a 1/2 --b -1 --trials 100 --seed 5", 0,
     "5de48de36f481748d4e3346dcdefcaf12daa4e1aacabd0e87cb9893e39a8d577"),
    ("verify charges --n 4 --m 3 --a 1/2 --b -1 --trials 100 --seed 5", 0,
     "e6ef3409fe1f899371c04172428d929bafa5f562457ec1f68ce5ed3a9f1643c8"),
    ("verify charges --n 1 --m 3 --a 1/2 --b -1 --trials 100 --seed 13", 0,
     "5dc0d098e892e54bc5820f03ddd2ef4dc14efbb1807deba86e31e177c9a111e2"),
    ("verify charges --n 2 --m 3 --a 1/2 --b -1 --trials 100 --seed 13", 0,
     "4c33b04d7cece34019492e1ae3948935ec8ecd395e4b7c88c3f5a5f1268c4557"),
    ("verify charges --n 3 --m 3 --a 1/2 --b -1 --trials 100 --seed 13", 0,
     "01d059aa6b755672714959d7989f0d41157b893f102f315f8c5d19a6269e3583"),
    ("verify charges --n 4 --m 3 --a 1/2 --b -1 --trials 100 --seed 13", 0,
     "308548b9e3948428797a10285d37947fd6fc69b6ea968efccd50d85f289b9a7d"),
    ("scan bayer --n 2 --a 1 --b 0 --bound 3", 1,
     "1e89cff662648b92cd2d6852ad54b9e050d2e5694710d2464ed19ec5b461fb7c"),
    ("hn p1 --a=1 --b=0 --degrees=5,1,1 --torsion=2", 0,
     "2d2f66a3b8b7a37e2470ef70ba772be8330aa3a5aa794e28028fc75e0a1703d4"),
    ("hn p1 --a=1 --b=0 --degrees=3", 0,
     "56702f8c5a1235e256fd7dcf5ff3a73a1cf40c9be6a53c59670002bf45629a36"),
    ("hn p1 --a=2/3 --b=1/2 --degrees=0,0", 0,
     "378f1c3a71358832b7f45e217153981921468fce47615491db44f1c492f9b448"),
    ("hn p1 --a=1 --b=0 --degrees=-2,4 --torsion=1,1", 0,
     "91435081e3fbdc053a4e1396bf01aa51368d1bcc635a1912b1ae9e4f0c0741d5"),
    ("hn p1 --a=3 --b=-5/2 --degrees=7,7,-1", 0,
     "8f56443c946cb5e71be346767aee80eab0f12a2faca4b36045cb5f9c4f6a8ca9"),
    ("hn p1 --a=1 --b=0 --torsion=3", 0,
     "22a92146c84e17209354e070b3f6d80abc8879d33b56d70c8eafe1a7f710aeea"),
    ("hn p1 --a=1/4 --b=1 --degrees=2,-3,2,-3 --torsion=5", 0,
     "f473cbc311b767ee939ac73cdc51f8f530f9d78c10bc54976a09ca86de97cbb3"),
    ("hn p1 --a=1 --b=0 --degrees=1,1,1,1", 0,
     "d55d580f2f6d7814f41b36d27e2723d9b7c8fb790d7699d0e787ebfc06f1ca2e"),
    ("derive chain --adegrees 1,4,7,13 --N 3", 1,
     "741a645409f4d4eddec851afcbb98152373ee2d1ca265c951824710a61485660"),
    ("scan bayer --n 3 --bound 1", 1,
     "aa0acc32540fb75ad43e8515246c250a2d2dd4fb1868d708172667f233318cbe"),
    ("scan bayer --n 2 --a 1/2 --b -1 --bound 8", 1,
     "08c5395c92d5fddfa3dd071c14e3ae195fd296c8381e51e08d9a84991a4a3bd0"),
    ("scan bayer --n 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify demazure --n 6", 0,
     "cc5aa98b3102254e45ecaaa492061e3e4437189921b19ab70561a68e665bf638"),
    ("verify demazure --n 7 --trials 1 --seed 7", 0,
     "8ec649495580904732bd63109aa956a97efb6dc1c0cf62e33fbca21ccb69f6a1"),
    ("verify demazure --n 8", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify soergel --n 2", 0,
     "35cb70c40652c47f66a4d1bb73b132f7b6af07534ac8f93cf5f1d5b788f6fd1e"),
    ("verify soergel --n 4", 0,
     "c8053224e2775126508e73cb811d2914123d73a42aa83b65fb74f789d884916f"),
    ("verify soergel --n 5", 0,
     "5e45a51ce34c3ed716b1479506ce6b774a9728a3d03625b53db3a1c4786139df"),
    ("verify soergel --n 6", 0,
     "1efa751dbed31ac2a23c85f2cc462abf47838e7f27968f12f97912ed72342c3b"),
    ("verify demazure --n 5 --trials 1 --seed 7", 0,
     "5ca2439dde35133ef1bbe7d45d50d640a11a8c012cb62a2797c8d7459c269975"),
    ("verify demazure --n 4 --trials 20 --seed 5", 0,
     "a792364b0c71c5bc5ce97b185901fc86bf996046f1201ea8f1d4914ff93edcb8"),
    ("verify demazure --n 4 --trials 20 --seed 13", 0,
     "259403c40a9f6a173c3f1daaec05a2837dc9e84498888cafa1b1e5dfba89b6c8"),
    ("verify soergel --n 7", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("table graph-twists --n 7", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("schubert --n 11 --w 1,7,2,11,3,10,4,9,5,8,6", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("schubert --n 8 --double --w 1,2,3,4,5,6,7,8", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("schubert --n 5 --w 1,2,3,4,5 --double", 0,
     "58a8db7d4b71bd63d55c5890e1dc88d62e15425218c9911b6a17afdf99a60f14"),
    ("schubert --n 5 --w 2,1,3,4,5 --double", 0,
     "3b76a15091d543a8c1948095cf53c5cb02ee1a03d49c9f12979f8cfe5a9c655f"),
    ("schubert --n 5 --w 2,1,3,5,4 --double", 0,
     "47644a510017383d2f824fa7af064a45f62c345b052c9cae03aada6524d787ca"),
    ("schubert --n 5 --w 2,1,4,5,3 --double", 0,
     "bf99e1e769179116bbf94d275ccb40c8235ea4085d801a2597028324a15f465b"),
    ("schubert --n 5 --w 3,1,4,5,2 --double", 0,
     "e7c318e5c888c6ce369efd64d4480e20b62ac213719cf0d814a20e58e42367af"),
    ("schubert --n 5 --w 1,5,3,4,2 --double", 0,
     "1a2aca28bb2d3ec14f530c9066c1cee65759f9e6151c1e8d9d56f191d172f065"),
    ("schubert --n 5 --w 3,4,1,5,2 --double", 0,
     "1ccdb0cbb03fbd977cef5a43c37d478bfd04a32364140f466e0b62113533d80c"),
    ("schubert --n 5 --w 4,1,5,3,2 --double", 0,
     "8e9ae79092b3c89048537aef647db17e5adc254b1a1caae1a8fb7b99356f8bcb"),
    ("schubert --n 5 --w 5,1,4,3,2 --double", 0,
     "4a798f28f0a36c83c60ae1bc68231e2cdb78011a998ab54f64dcb1c2d4b58a36"),
    ("schubert --n 5 --w 5,2,4,3,1 --double", 0,
     "5feb33470612e7f62860a94c2f6d5d992c78e250e1002da5185fc31d29e795b7"),
    ("schubert --n 5 --w 5,4,2,3,1 --double", 0,
     "8c69a3b7de8ea5e32a0701d35fc64545e273ddb6d580609bfd9e24262fc8886f"),
    ("schubert --n 5 --w 5,4,3,2,1 --double", 0,
     "ed0a6eb84a749fb3955f5a973610b1baf6c85739f1584ca72c953860939cac93"),
    ("schubert --n 6 --double --w 6,5,4,3,2,1", 0,
     "27f2caa565e04bad3a13ab6272ef29163646a2fe23e4fcf2413ae0e06527b603"),
    ("table graph-twists --n 4", 0,
     "3b2b4d61f070aacf7e7eab545f30647ab6faee960303cc2778ef986836450e78"),
    ("table graph-twists --n 5", 0,
     "38e0394f71c97b832b64eae411e53e791e56c2b89cf986931c64b2a7ddd362a8"),
    ("schubert --n 6 --double --w 1,5,2,6,3,4", 0,
     "44a8f14108b91cd9f32088953f83c336e43de0106b240a515eb741bf44aae953"),
    ("schubert --n 10 --w 1,6,2,10,3,9,4,8,5,7", 0,
     "7ef44b587b0e42e1d09998e5ecd6a63c62b673aa0349eb9d869a263442c73652"),
    ("schubert --n 7 --double --w 1,5,2,7,3,6,4", 0,
     "61cf071a00c658dfb4822e8044aa11e0134116fa91036cc36d3256cd514e0dfd"),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_json_stdout_and_exit_code_unchanged(command, exit_code, digest):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([*command.split(), "--json"])
    assert code == exit_code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# The rank-7 longest permutation's double Schubert polynomial, the largest
# document the CLI admits (128 798 529 bytes), run in a child process so
# its peak memory is the command's own; it must stay under 300 MiB.
W0_RANK7 = "schubert --n 7 --double --w 7,6,5,4,3,2,1"
W0_RANK7_DIGEST = "c466dfe457946561bfedcef296ce45713ee44fd10cb1836d38e330d20740139b"
_REPORT_PEAK = (
    "import resource, sys\n"
    "from schubstab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_rank7_longest_double_schubert_in_a_child_process():
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.Popen(
        [sys.executable, "-c", _REPORT_PEAK, *W0_RANK7.split(), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
        digest.update(chunk)
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert digest.hexdigest() == W0_RANK7_DIGEST
    peak_mib = int(err.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mib < 300
