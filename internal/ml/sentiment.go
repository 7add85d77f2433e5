package ml

import (
	"strings"
	"unicode/utf8"
)

// SentimentLexicon is a word-list sentiment scorer standing in for the
// pre-trained flair classifier of the Sentiment Prediction case study. It
// scores text by counting positive and negative lexicon hits, with simple
// negation flipping ("not good" counts as negative).
type SentimentLexicon struct {
	// polarity maps each lexicon token to its polarity: +1 positive, -1
	// negative, or negates.
	polarity map[string]int8
}

// negates is the polarity of a negator: it flips the following hit.
const negates int8 = 2

// The built-in lexicon: positive words, negative words and negators.
var (
	positiveWords = []string{
		"good", "great", "excellent", "amazing", "wonderful", "fantastic",
		"love", "loved", "lovely", "best", "brilliant", "superb", "enjoyed",
		"enjoyable", "perfect", "awesome", "delightful", "masterpiece",
		"beautiful", "charming", "refreshing", "stunning", "happy",
		"pleasant", "satisfying", "terrific", "outstanding", "favorite",
		"fun", "funny", "gem", "remarkable", "impressive", "solid",
	}
	negativeWords = []string{
		"bad", "terrible", "awful", "horrible", "worst", "hate", "hated",
		"boring", "dull", "poor", "disappointing", "disappointed", "waste",
		"mess", "weak", "annoying", "stupid", "lame", "mediocre", "bland",
		"dreadful", "painful", "unwatchable", "fails", "failed", "flawed",
		"pathetic", "tedious", "forgettable", "atrocious", "garbage",
		"slow", "broken", "ugly", "sad",
	}
	negatorWords = []string{"not", "no", "never", "hardly", "isnt", "wasnt", "dont", "didnt"}
)

// NewSentimentLexicon builds the scorer with its built-in lexicon. A word
// on more than one list is a negator first, then positive.
func NewSentimentLexicon() *SentimentLexicon {
	s := &SentimentLexicon{polarity: make(map[string]int8)}
	for _, list := range []struct {
		words    []string
		polarity int8
	}{{negativeWords, -1}, {positiveWords, 1}, {negatorWords, negates}} {
		for _, w := range list.words {
			s.polarity[w] = list.polarity
		}
	}
	return s
}

// trimmed is the punctuation Score strips from both ends of a token.
const trimmed = ".,!?;:'\"()-"

// Score returns a signed sentiment score for text: positive values indicate
// positive sentiment. Text is lowered and split on white space; each
// token loses the punctuation in trimmed at its ends and every
// apostrophe, and is then looked up in the lexicon. ASCII text is
// tokenized in place; any other text through strings.ToLower and
// strings.Fields, which lower and split beyond ASCII.
func (s *SentimentLexicon) Score(text string) float64 {
	var t tally
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			for _, raw := range strings.Fields(strings.ToLower(text)) {
				tok := strings.ReplaceAll(strings.Trim(raw, trimmed), "'", "")
				t.add(s.polarity[tok])
			}
			return float64(t.score)
		}
	}
	var buf [32]byte // holds any lexicon token; a longer one spills to the heap
	for i := 0; i < len(text); {
		for i < len(text) && asciiSpace(text[i]) {
			i++
		}
		if i == len(text) {
			break
		}
		end := i
		for end < len(text) && !asciiSpace(text[end]) {
			end++
		}
		lo, hi := i, end
		for lo < hi && strings.IndexByte(trimmed, text[lo]) >= 0 {
			lo++
		}
		for hi > lo && strings.IndexByte(trimmed, text[hi-1]) >= 0 {
			hi--
		}
		tok := buf[:0]
		for k := lo; k < hi; k++ {
			c := text[k]
			if c == '\'' {
				continue
			}
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			tok = append(tok, c)
		}
		t.add(s.polarity[string(tok)])
		i = end
	}
	return float64(t.score)
}

// asciiSpace reports whether c is one of the ASCII bytes strings.Fields
// splits on.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// tally adds up the polarities of a text's tokens in order.
type tally struct {
	score  int
	negate bool // the previous token was a negator
}

func (t *tally) add(polarity int8) {
	if polarity == negates {
		t.negate = true
		return
	}
	if t.negate {
		t.score -= int(polarity)
	} else {
		t.score += int(polarity)
	}
	t.negate = false
}

// Classify returns +1 for positive sentiment and -1 for negative. Ties
// break negative, matching the pessimistic bias of review scoring.
func (s *SentimentLexicon) Classify(text string) int {
	if s.Score(text) > 0 {
		return 1
	}
	return -1
}
