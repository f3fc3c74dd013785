"""Closed token inventory shared by the scene grammar and the model.

The base vocabulary is the template grammar's function words plus the
generator's own word lists (colors, shapes, plurals, numerals), read from
`synthdata` so a scene word has one owner.  "an", "one" and "." appear in
no generated text; they stay so that no token id moves.  Numerals are
spelled as words so digit strings stay free for the position-token
extension, where each coordinate bin is its own vocabulary entry.  PEVL's
box spelling lives here with its tokens: `position_token_insert` writes a
box as "< b(x1) b(y1) b(x2) b(y2) >".
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, VocabError
from .synthdata import COLORS, NUMERALS, PLURAL, SHAPES, BBox

PAD, CLS, SEP, MASK = "[PAD]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, CLS, SEP, MASK)

WORD_TOKENS = (
    "a", "an", "and", "the", "is", "are", "there", "no", "exactly", "of",
    "left", "right", "above", "below",
    *COLORS, *SHAPES, *(PLURAL[s] for s in SHAPES), *NUMERALS,
    ".",
)

POS_OPEN, POS_CLOSE = "<", ">"
POSITION_BINS = 32  # PEVL's bins per box coordinate, one position token each


def quantize_coordinate(value: float) -> int:
    """The bin of a normalized coordinate, clamped to [0, POSITION_BINS - 1]."""
    return min(max(int(np.floor(value * POSITION_BINS)), 0), POSITION_BINS - 1)


def position_token_insert(tokens: list[str], bbox: BBox, insert_after: int) -> list[str]:
    """Insert "< b(x1) b(y1) b(x2) b(y2) >" right after the entity span."""
    if not 0 <= insert_after <= len(tokens):
        raise ValidationError(f"insertion point {insert_after} outside token range")
    bin_tokens = [str(quantize_coordinate(v)) for v in bbox.corners()]
    return [*tokens[:insert_after], POS_OPEN, *bin_tokens, POS_CLOSE, *tokens[insert_after:]]


class Vocabulary:
    def __init__(self, position_tokens: bool):
        tokens = list(SPECIAL_TOKENS) + list(WORD_TOKENS)
        if position_tokens:
            tokens += [POS_OPEN, POS_CLOSE] + [str(b) for b in range(POSITION_BINS)]
        self._tokens = tuple(tokens)
        self._ids = {tok: i for i, tok in enumerate(tokens)}
        self.pad_id = self._ids[PAD]
        self.cls_id = self._ids[CLS]
        self.sep_id = self._ids[SEP]
        self.mask_id = self._ids[MASK]
        unmaskable = set(SPECIAL_TOKENS) | {POS_OPEN, POS_CLOSE}
        self._maskable = frozenset(
            i for tok, i in self._ids.items() if tok not in unmaskable
        )

    def __len__(self) -> int:
        return len(self._tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise VocabError(f"unknown token {token!r}") from None

    def encode(self, text: str | list[str]) -> list[int]:
        tokens = text.split() if isinstance(text, str) else text
        return [self.id_of(tok) for tok in tokens]

    def encode_wrapped(self, text: str | list[str]) -> list[int]:
        """Token ids with [CLS] ... [SEP] framing, as the text encoder expects."""
        return [self.cls_id] + self.encode(text) + [self.sep_id]

    def is_maskable(self, token_id: int) -> bool:
        return token_id in self._maskable
