"""The printed text of every elaborated manifest program, pinned: the
SHA-256 of `pretty_print` over the signature `corpus.load` elaborates for
each run and check spec of the manifest.  These ground programs carry
mangled `$` names, cost-model ticks and reconstructed delays, which the
round trip over source files does not print."""

import hashlib

import pytest

from tss import corpus
from tss.printer import pretty_print

# (file, root, binding, cost model, SHA-256 of the printed elaboration)
PINNED = [
    ("cost_free_bits.tss", "main", "", "free",
     "bf311e2d97b8ca469ded87725888b234e2559844e5cc3ef90e36748de322f0fc"),
    ("six_r.tss", "six", "", "r",
     "23389b947be0810cc319cae51ee8cfcc371d06caf51f8b94fc9eb20723a7a041"),
    ("copy_r.tss", "main", "", "r",
     "3c90eb07518cedc87b89a2e8d95f975b695f13b03c72404f90fa14399ab00e33"),
    ("plus1_bad_r.tss", "plus1", "", "r",
     "9f284212186dfbefe367fff766fb3546aafa70789820c13a1568f9beb01146fb"),
    ("plus_r.tss", "p1main", "", "r",
     "f18c2b29618862d49d7c861c6df74c9979f137c9d56672dfcdbac3272531c881"),
    ("plus_r.tss", "p2main", "", "r",
     "2efdcf4d5ba20e975683a0a8870668ea19266042238aa69eaf8c7cd26207fde3"),
    ("compress_r.tss", "main", "", "r",
     "3f9542f49e5b6119fbe3d007be9adc5213382abc1b96ad10cf668a621071279e"),
    ("compress_r.tss", "main2", "", "r",
     "0def5efbc499565a4f9935ce2009d1bc91933f1586df9e6119215be159543e77"),
    ("counter_r.tss", "main", "", "r",
     "b21a6defa3b8e7826948147ffbeb280df31a3e85e1d60cde3f8f0b96b7c42194"),
    ("stack_rs.tss", "smain", "n=1", "rs",
     "985a87299d75b3c45b7c7d80c4369e81dcd7c8b9dad1cd1a4a775542809761e1"),
    ("stack_rs.tss", "smain", "n=2", "rs",
     "a74813638d7eb1c5de3acfc168849c9a9918e49036ceedcb4fcdf78472fe8bfc"),
    ("stack_rs.tss", "smain", "n=3", "rs",
     "06253ac615afa1b3a35cb01b2183f9a1e194b9ff67a6753dc65f7c26c9b210da"),
    ("stack_rs.tss", "spopmain", "", "rs",
     "732fc887d6403114af2c58dc1f6ededcfc450a00c67a70fbe6f3c8d5989bfa42"),
    ("queue_rs.tss", "qmain", "n=1", "rs",
     "0add61ce6ec426f9e5af8f03f834c7af6167be9b6279269c19764395f608ba34"),
    ("queue_rs.tss", "qmain", "n=2", "rs",
     "c059bd81dfce0133eed04cd2dd2326e28ff7d617bc08f5c19c441be712863fe1"),
    ("queue_rs.tss", "qmain", "n=3", "rs",
     "b85ff72073a60226b094c634853aa84880b026c818b2b5f1e00a4d9a8b4ed008"),
    ("queue_rs.tss", "qpopmain", "", "rs",
     "aee77e023ce191082c3d6ddc17326de46727d90f607772df0cde7d8eff9bedcc"),
    ("append_rs.tss", "amain", "n=1,k=1,r=0", "rs",
     "b43fe59c932804562eb572072b25e9384031b34b417fa7f756352df3882f5dbe"),
    ("append_rs.tss", "amain", "n=2,k=1,r=1", "rs",
     "73f7c024f8790dcd46ef4e2f53db15e972f24f9a4465688cfc16d53a7d71391c"),
    ("append_rs.tss", "amain", "n=3,k=3,r=2", "rs",
     "4e680e59b3c405c50ed060f8d305e7cd0b2dc7b247d0245b5dfd175095034100"),
    ("alternate_rs.tss", "altmain", "k=0", "rs",
     "2e75d29aab7ece70ea90aa3188aad8d4f21960062dab76e58b570e13caa84ea5"),
    ("alternate_rs.tss", "altmain", "k=1", "rs",
     "c4fe9dc12069d7cec3d3cd9d65cccbad89a0322d178fb51310499f026279f8d8"),
    ("alternate_rs.tss", "altmain", "k=2", "rs",
     "b21ec2ea44af769bee514d61daeb72409a03ad14a2466ed0de195add51702c48"),
    ("tree_rs.tss", "tmain", "h=0", "rs",
     "903bd55661af6da7f585493ef05742c04dd9515ff4312559d8f8b7313f128509"),
    ("tree_rs.tss", "tmain", "h=1", "rs",
     "6b2cf36ca8cf56b7d01c54f7f185e49ea1bfdd151692d6c0b1babcd64999fe5d"),
    ("tree_rs.tss", "tmain", "h=2", "rs",
     "bc1317881ab2d1e400f871ef80e4c8397b4322878bb4d7c9c1e29127632a0ece"),
    ("tree_rs.tss", "tmain", "h=3", "rs",
     "56a1842e4bf1cf8a9207d404a532bce3fa009b1b013e7f679a6e99120e26b971"),
    ("tree_free.tss", "tmain", "h=0", "free",
     "d7d85b2edb88be9115dd3d857984302e42fbb8c0e372f11ff7c1d35b83b46ec8"),
    ("tree_free.tss", "tmain", "h=1", "free",
     "9f0bce04939b5a3dfa6e60dd5fe25c93d467d7695d2dccd3ee644c8a6da846de"),
    ("tree_free.tss", "tmain", "h=2", "free",
     "f82e121d208b3212bd28087484a8b506c6c269c466edd6840e1af7fb35ecbc44"),
    ("tree_free.tss", "tmain", "h=3", "free",
     "bf6161cc3b24f155353f2554c04677c7fad9ec215fc0b49a6f7fdc59b57e3881"),
    ("fold_rs.tss", "fmain", "n=0,k=0", "rs",
     "543dd869deefa453d37adc16a1b8017f0a2b72aa9e83bc716f5380480c92eeda"),
    ("fold_rs.tss", "fmain", "n=1,k=0", "rs",
     "67c4fd502a515d3410b60a50faf0544cf756af388668d41a04d210f2846937c3"),
    ("fold_rs.tss", "fmain", "n=1,k=2", "rs",
     "3669bd6b2b3f1dbe8cce8c345e20500273088c1b0cbd5ddf7016af62dc3a4a85"),
    ("fold_rs.tss", "fmain", "n=3,k=2", "rs",
     "a6e1e91f9e3d3b98d79df95b160d49671c4c8c5a784f9f0bdb12c3dc7644ea8b"),
    ("fold_paper_rs.tss", "fmain", "n=0,k=0", "rs",
     "543dd869deefa453d37adc16a1b8017f0a2b72aa9e83bc716f5380480c92eeda"),
    ("fold_paper_rs.tss", "fmain", "n=1,k=0", "rs",
     "57c262461284f1a411f0357e39b488ae0d96b0ad15aa2b0df20e6029a91c8125"),
    ("fold_paper_rs.tss", "fmain", "n=2,k=2", "rs",
     "7bf0778392207575865aa989951f692ce3a8d9c948c849ca41208be737d59d2f"),
]


def _key(spec) -> tuple[str, str, str, str]:
    bind = ",".join(f"{k}={v}" for k, v in spec.bind.items())
    return spec.file, spec.root, bind, spec.cost


def test_every_manifest_spec_is_pinned():
    assert sorted(map(_key, corpus.check_specs())) == \
        sorted(pin[:4] for pin in PINNED)


@pytest.mark.parametrize("file, root, bind, cost, digest", PINNED,
                         ids=lambda v: v if len(v) < 64 else "")
def test_printed_elaboration_is_byte_identical(file, root, bind, cost,
                                               digest):
    binding = {k: int(v) for k, v in
               (kv.split("=") for kv in bind.split(",") if kv)}
    text = pretty_print(corpus.load(file, root, binding, cost).elab)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
