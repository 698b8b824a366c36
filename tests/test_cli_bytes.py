"""Byte pins of every CLI output.

Each subcommand runs in process through ``cli.run`` on a fortnight of
hourly input built here from closed-form integer expressions, under each
cooling architecture and two configs: the required keys alone, and every
known key set away from its default.  The sha256 of each output file and
of each stdout is compared with a pinned table.  A change that moves a pin
must say which output moved and why.

The inputs cross the 29 February month end, hold U = 0 overnight and
U = 1 around 14:00, and run from -12 C to 53.9 C, past both ends of either
EER table.
"""

import hashlib

import pytest

from dcpowersim.cli import run
from dcpowersim.config import _KEYS, CoolingArchitecture

DAYS = 14
ARCHITECTURES = [a.value for a in CoolingArchitecture]

REQUIRED = """\
server.count=40000
server.p_idle_w=120
server.p_peak_w=250
architecture={arch}
"""

EVERY_KEY = """\
# every known key, each away from its default
server.count=1200
server.p_idle_w=95.5
server.p_peak_w=310
supply.pdu_count=6
supply.pdu_idle_total_frac=0.02
supply.ups_idle_frac=0.035
supply.peak_loss_frac=0.12
chiller.alpha=0.3
chiller.beta=0.15
chiller.gamma=0.55
chiller.sizing_factor=0.8
crah.idle_frac=0.09
crah.eta_heat=0.85
crah.unit_capacity_kw=10
crah.unit_airflow_cmh=16000
crac.idle_frac=0.2
crac.cop=4.5
eer.table=5:5.4; 40:2.7; 20:4.3; 30:3.5
pump_fraction=0.05
misc_fraction=0.07
reference_ambient_c=27.5
consolidation=0.4
architecture={arch}
"""

CONFIGS = {"required": REQUIRED, "every-key": EVERY_KEY}

# (ambient_c, target_w) per config: the first is feasible under every
# architecture, the second is below every floor.
CURTAIL = {"required": (("35.5", "14e6"), ("-5", "5e6")),
           "every-key": (("35.5", "500e3"), ("-5", "50e3"))}


def utilisation_percent(hour: int) -> int:
    """A daily peak at 14:00, clipped to 100 around it and to 0 overnight,
    3 points lower on each day of a five-day cycle."""
    day, clock = divmod(hour, 24)
    return min(100, max(0, 130 - 15 * abs(clock - 14) - 3 * (day % 5)))


def ambient_tenths(hour: int) -> int:
    """A warming of 4.7 C a day with a 4.8 C daily swing."""
    day, clock = divmod(hour, 24)
    return -120 + 47 * day + 4 * abs(clock - 12)


def write_inputs(directory):
    util = ["timestamp,utilisation"]
    weather = ["timestamp,temperature_c"]
    for hour in range(DAYS * 24):
        day, clock = divmod(hour, 24)
        month, mday = (2, 22 + day) if day < 8 else (3, day - 7)
        stamp = f"2016-{month:02d}-{mday:02d}T{clock:02d}:00"
        util.append(f"{stamp},{utilisation_percent(hour) / 100}")
        weather.append(f"{stamp},{ambient_tenths(hour) / 10}")
    (directory / "util.csv").write_text("\n".join(util) + "\n")
    (directory / "weather.csv").write_text("\n".join(weather) + "\n")


def cli_outputs(directory, capsys, config_name, arch):
    """sha256 of every output of every subcommand, by output name."""
    write_inputs(directory)
    (directory / "scenario.cfg").write_text(
        CONFIGS[config_name].format(arch=arch))
    config = str(directory / "scenario.cfg")
    profiles = ["--utilisation", str(directory / "util.csv"),
                "--weather", str(directory / "weather.csv")]
    digests = {}

    def cli(label, argv, files=()):
        assert run(argv) == 0, label
        out, err = capsys.readouterr()
        assert err == "", label
        if out:
            digests[f"{label}.stdout"] = out.encode()
        for file in files:
            digests[file] = (directory / file).read_bytes()

    cli("simulate", ["simulate", "--config", config, *profiles,
                     "--out", str(directory / "simulate.csv"),
                     "--svg", str(directory / "simulate.svg")],
        ["simulate.csv", "simulate.svg"])
    cli("compare", ["compare", "--config", config, *profiles,
                    "--out", str(directory / "compare.csv"),
                    "--svg", str(directory / "compare.svg")],
        ["compare.csv", "compare.svg"])
    cli("curve", ["curve", "--config", config, "--temps=-5,12.5,30,45",
                  "--out", str(directory / "curve.csv"),
                  "--svg", str(directory / "curve.svg")],
        ["curve.csv", "curve.svg"])
    for label, (ambient, target) in zip(
            ("curtail-feasible", "curtail-infeasible"), CURTAIL[config_name]):
        cli(label, ["curtail", "--config", config, "--ambient-c", ambient,
                    "--target-w", target])
    cli("peak", ["peak", "--config", config])
    return {key: hashlib.sha256(data).hexdigest()
            for key, data in digests.items()}


def test_every_key_config_sets_every_known_key():
    keys = {line.split("=")[0] for line in EVERY_KEY.splitlines()
            if "=" in line}
    assert keys == _KEYS.keys()


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cli_output_bytes_are_pinned(tmp_path, capsys, config, arch):
    assert cli_outputs(tmp_path, capsys, config, arch) == PINS[config, arch]


# compare reads both architectures whatever the config names, so its three
# pins repeat under each config.
PINS = {
    ("every-key", "crah_chiller"): {
        "compare.csv":
            "9e50f65cb1a846858787e594d5fa9a860dba1d736bba7e5feb230722899d5e88",
        "compare.stdout":
            "6aec449eb9b2d9caefaef9bcc5f9ce1609c98f9a76829bea19afc9125fb0a57c",
        "compare.svg":
            "cf6642d117d5fc911ac878afc6d6ceb221ce97eb67398d8f5a0c38f2e5528d39",
        "curtail-feasible.stdout":
            "f8f9c26e8aa9a8fe594ae7b90ef25d8eb79ebd2cb16df006bcd32806a7880415",
        "curtail-infeasible.stdout":
            "2afcf9d5ca09061c1b6db5c7c2f80c7cf97265747cde69dcb719488612e9cbc0",
        "curve.csv":
            "7f32e3af3f62ff13e5fbb2d7deec9260acdd08c0af3d2a7c28d48b0a7fcf9674",
        "curve.svg":
            "ed345c3b87004e00a4c3fa97e1d9046a734a0a556c0c86d9c77612194a0e3fea",
        "peak.stdout":
            "10bd8403f6899d488b934fe8ae47345526f965b337dfd6fbf2377ffb4bcabb37",
        "simulate.csv":
            "407ded46c3cd09ba691abf66a0c7fef4f17f7b77e964f34fa54dbd6ca8e2c1de",
        "simulate.svg":
            "f1028ecf7fc018de00477a1cf77eb5cabc4dcb52492d1b01138d37f316f3ce5d",
    },
    ("every-key", "crac"): {
        "compare.csv":
            "9e50f65cb1a846858787e594d5fa9a860dba1d736bba7e5feb230722899d5e88",
        "compare.stdout":
            "6aec449eb9b2d9caefaef9bcc5f9ce1609c98f9a76829bea19afc9125fb0a57c",
        "compare.svg":
            "cf6642d117d5fc911ac878afc6d6ceb221ce97eb67398d8f5a0c38f2e5528d39",
        "curtail-feasible.stdout":
            "74ac35b4317e6cca298747deae8d83205791c065968af556e9c0c07585676f6f",
        "curtail-infeasible.stdout":
            "86445d7ff393274806c70f30f2769d5961f19dbbe5b2ce88fe72c32462869ad2",
        "curve.csv":
            "575eea7d4fc06ab9e5d6f2610e133d1335af10e04e2327d94ad07a10c7de2b17",
        "curve.svg":
            "7369877aec4a03045cd02d3a471fcd841e5a707fe4c9ed94e6babde1f0f419b7",
        "peak.stdout":
            "296ed86e6f4302db9884621e2abb05169a11d2fb9e737a83de982e9f359c585f",
        "simulate.csv":
            "593ff849228f59b2ba2bc118f6f3f4b96b2d333786f3a993d2d3ad5566e551b8",
        "simulate.svg":
            "e4493d2a5531764bad918e56185abcc98e5d221bd0b1cb5ce1e01152d6dfcc25",
    },
    ("every-key", "free_air"): {
        "compare.csv":
            "9e50f65cb1a846858787e594d5fa9a860dba1d736bba7e5feb230722899d5e88",
        "compare.stdout":
            "6aec449eb9b2d9caefaef9bcc5f9ce1609c98f9a76829bea19afc9125fb0a57c",
        "compare.svg":
            "cf6642d117d5fc911ac878afc6d6ceb221ce97eb67398d8f5a0c38f2e5528d39",
        "curtail-feasible.stdout":
            "1b47c4cd40f81a3c542eccb48b7c6ad7991100fe361167e466a7f71c9b5dcf3e",
        "curtail-infeasible.stdout":
            "b2254659081e214864df8528272f9bb7de1d1ab4dd2005b70ce89809c4f536bb",
        "curve.csv":
            "18b48535f795c3d697b682a5712a3993bcc52fa77d7b4ec264493acc73a00134",
        "curve.svg":
            "1d1c559f57675a82fa5e714898b134c1716c91d7942c83fdd3d1318d0368d354",
        "peak.stdout":
            "3dd1e8f73dcae7ef075e9df7c7a65f86576d88a7d3fc6d74f0d2d5c4ad4847a4",
        "simulate.csv":
            "92e3657bc9aecf355116327de7477fc78381ba200994cf0c3a3c335e15fa23bf",
        "simulate.svg":
            "51a736d041936812303ae0530f6c07bb469a520474ec9eb64a4a20de20ea3c44",
    },
    ("required", "crah_chiller"): {
        "compare.csv":
            "6b90a0e70bb8ec5599213add1d30c740046058272ad0b4bad2d68982d5f9029e",
        "compare.stdout":
            "8d126389eb35b6584998fa4896e2f8436f2d388ac36a2f6f0c19b3bae780f2ec",
        "compare.svg":
            "1b6f5bdf61ab0edacc20402f460bf85bc04997f72fc3f23af1013ce90262c735",
        "curtail-feasible.stdout":
            "a5cd6bb9edb318d419068f00244127ac6064ec2f2f18b0778378a1aea6d062f7",
        "curtail-infeasible.stdout":
            "6193dcaca47800380ec0e43490128209bd122d38f6d4d378b6b3da987608fd44",
        "curve.csv":
            "dfcaeb6dc9106393b2fe2b3345f1b6e4a330f7f44673e45c0d73fb7060bd2663",
        "curve.svg":
            "74423d7370212f98163a770b9fdc357f4a51d301bbf9ef5368e5893781848102",
        "peak.stdout":
            "eaf43965ee6e7a7cbe6e4d463f27c539fd19a04a5fdc5a810e203cd1c972b5d0",
        "simulate.csv":
            "a962beedcd63b7a2f095f657f2dddb4924175f78bb1d462ba7cc85614888b370",
        "simulate.svg":
            "8222e0736571a68a5be0a064f748c8f9cf26075f9abdacaa01fde5b10645aef8",
    },
    ("required", "crac"): {
        "compare.csv":
            "6b90a0e70bb8ec5599213add1d30c740046058272ad0b4bad2d68982d5f9029e",
        "compare.stdout":
            "8d126389eb35b6584998fa4896e2f8436f2d388ac36a2f6f0c19b3bae780f2ec",
        "compare.svg":
            "1b6f5bdf61ab0edacc20402f460bf85bc04997f72fc3f23af1013ce90262c735",
        "curtail-feasible.stdout":
            "976f71be7473ddf82e97d294e11c49d618041f93b4ac124edbd6a2eaf8e85162",
        "curtail-infeasible.stdout":
            "e9f459a04243028164fac9911210c22be1c12838dec592ece1aac612754965cd",
        "curve.csv":
            "fe8b898dbab11353117809bd94fa77717d6fa4682e05ec4724c74f58ce282fc1",
        "curve.svg":
            "a83717509dd445f6f6b82488ca848580112381820b6eca8c715b0a6cdba03e3c",
        "peak.stdout":
            "945feda4a36059c21da024fb9c8add18a800b5548504151514a6ebf991481271",
        "simulate.csv":
            "94be1027e4af61302ea844c397ddce157a149673151b12faf733a9699f28e499",
        "simulate.svg":
            "b345bb3f68abf265b26758015321ae27614c0d581adbc7a5b612737c4ea8758c",
    },
    ("required", "free_air"): {
        "compare.csv":
            "6b90a0e70bb8ec5599213add1d30c740046058272ad0b4bad2d68982d5f9029e",
        "compare.stdout":
            "8d126389eb35b6584998fa4896e2f8436f2d388ac36a2f6f0c19b3bae780f2ec",
        "compare.svg":
            "1b6f5bdf61ab0edacc20402f460bf85bc04997f72fc3f23af1013ce90262c735",
        "curtail-feasible.stdout":
            "076d6d866bb5ab37bfebc08ecbc33ffe4b579da8e011cd75e4a1f0f478d7a8c6",
        "curtail-infeasible.stdout":
            "e9ce84cba7ca6b9c7117bbf7fe81984b95434a61ea22f3c364fb2bca0dd355b5",
        "curve.csv":
            "5e426bd5a443e3df65fa0049cb4fbf39a8d81ba69986f883f83666976a3ed0aa",
        "curve.svg":
            "1058efae56e348fb6f578ab1a52bac08e79ff212f32913ced90154867ede904b",
        "peak.stdout":
            "b82783a0a08abbbaf0dcf913feca09807dc451dd3b7705454b3ac565385d73a9",
        "simulate.csv":
            "6c79c959ddab8b9a2939f8f8f25726c628f103001bfc0a561990badad9b0295d",
        "simulate.svg":
            "34e8cad16ca16530a88fb9a1b392e6bd9ddc9e84db04024047cc358811ea91f2",
    },
}
