"""Closed token inventory shared by the scene grammar and the model.

The base vocabulary covers the template grammar exactly; numerals are
spelled as words so digit strings stay free for the position-token
extension, where each coordinate bin is its own vocabulary entry.
"""

from __future__ import annotations

from .errors import VocabError

PAD, CLS, SEP, MASK = "[PAD]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, CLS, SEP, MASK)

WORD_TOKENS = (
    "a", "an", "and", "the", "is", "are", "there", "no", "exactly", "of",
    "left", "right", "above", "below",
    "red", "blue", "green", "yellow",
    "circle", "square", "triangle", "circles", "squares", "triangles",
    "one", "two", "three", "four",
    ".",
)

POS_OPEN, POS_CLOSE = "<", ">"


class Vocabulary:
    def __init__(self, position_bins: int | None = None):
        tokens = list(SPECIAL_TOKENS) + list(WORD_TOKENS)
        if position_bins is not None:
            tokens += [POS_OPEN, POS_CLOSE] + [str(b) for b in range(position_bins)]
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
