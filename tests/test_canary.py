"""A learning canary: a micro model trained on its own captions must learn to match them.

Every other test pins what the code computes; a change that stops the model
learning, deterministically, passes them all.  This one trains a micro model
on the A arm (contrastive, matching and masked LM) over 16 captions, then
retrieves each training caption's image among the 16.

It is not evidence that the default recipe learns.  It names
`clip_norm = 10`: at the default `clip_norm = 1` the same run's matching head
stays at chance (1/16), because nearly every step's gradient is clipped to a
small fraction of its norm.
"""

import numpy as np

from finegrain import evalharness as ev
from finegrain import runner
from finegrain import synthdata as sd
from finegrain.config import RunConfig
from finegrain.model import VLModel, load_checkpoint

CANARY = RunConfig(seed=7, steps=600, cadence=600, hidden_dim=32, mlp_dim=64, vision_layers=1,
                   text_layers=1, cross_layers=1, heads=2, proj_dim=16, losses="A",
                   sources="captions", caption_count=16, clip_norm=10.0)

# texts, of the 16, that must rank their own image first; chance is 1.  Over
# seeds 7-11 the matching head ranked 5-9 first at clip 10 and 1-3 at clip 1;
# ITC ranked 5-11 at clip 10 and 6-8 at clip 1.
ITM_MIN_HITS = 4
ITC_MIN_HITS = 4


def text_to_image_hits(model: VLModel, samples) -> tuple[int, int]:
    """How many texts rank their own image first, by the matching head and by ITC.

    ITC scores a pair by the dot product of the two unit [CLS] projections,
    the contrastive loss's similarity.
    """
    n = len(samples)
    model = model.frozen()
    visions = model.encode_images([s.scene.grid for s in samples])
    texts = model.encode_texts([model.config.vocab.encode_wrapped(s.text) for s in samples])
    cls = model.cross_cls(texts, visions, np.column_stack((np.repeat(np.arange(n), n),
                                                           np.tile(np.arange(n), n))))
    itm = model.matching_probabilities(cls).reshape(n, n)  # [text, image]
    itc = model.project("txt", texts.cls_rows(n)).array @ model.project(
        "img", visions.cls_rows(n)).array.T
    return tuple(round(ev.retrieval_recall(table)[0] * n) for table in (itm, itc))


def test_micro_model_learns_to_match_its_captions(tmp_path):
    runner.run_training(CANARY, tmp_path)
    model = VLModel(CANARY, seed=CANARY.seed)
    load_checkpoint(model, runner.checkpoint_path(tmp_path, CANARY.steps), CANARY.config_hash())
    samples = [sd.caption_of(sd.generate_scene(CANARY.data_seed, i, CANARY.patch_grid))
               for i in range(CANARY.caption_count)]
    itm_hits, itc_hits = text_to_image_hits(model, samples)
    assert itm_hits >= ITM_MIN_HITS, f"ITM text->image R@1 {itm_hits}/16"
    assert itc_hits >= ITC_MIN_HITS, f"ITC text->image R@1 {itc_hits}/16"
