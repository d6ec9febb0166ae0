package nn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the masked mean cross-entropy loss over rows
// where mask is true, for single-label classification. labels[i] is row
// i's class. Returns (loss, dLogits); dLogits rows outside the mask are
// zero. The mean is over masked rows.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int, mask []bool) (float64, *tensor.Matrix) {
	n := 0
	for i := range mask {
		if mask[i] {
			n++
		}
	}
	return SoftmaxCrossEntropyScaled(logits, labels, mask, float64(n))
}

// SoftmaxCrossEntropyScaled is SoftmaxCrossEntropy with an explicit
// denominator — in distributed training each device holds a shard of the
// training nodes but the loss is the mean over the *global* training set,
// so every device divides by the global count and the allreduced weight
// gradients come out exactly as in single-device full-graph training.
func SoftmaxCrossEntropyScaled(logits *tensor.Matrix, labels []int, mask []bool, denom float64) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	if denom <= 0 {
		return 0, grad
	}
	inv := 1 / denom
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		row := logits.Row(i)
		// log-sum-exp with max subtraction for stability
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		lse := math.Log(sum) + float64(mx)
		y := labels[i]
		loss += (lse - float64(row[y])) * inv
		grow := grad.Row(i)
		for j, v := range row {
			p := math.Exp(float64(v) - lse)
			grow[j] = float32(p * inv)
		}
		grow[y] -= float32(inv)
	}
	return loss, grad
}

// SigmoidBCE computes masked mean binary cross-entropy for multi-label
// classification with a 0/1 target matrix. The mean is over masked rows
// (summed over classes within a row, matching common GraphSAINT-style
// training). Returns (loss, dLogits).
func SigmoidBCE(logits, targets *tensor.Matrix, mask []bool) (float64, *tensor.Matrix) {
	n := 0
	for i := range mask {
		if mask[i] {
			n++
		}
	}
	return SigmoidBCEScaled(logits, targets, mask, float64(n))
}

// SigmoidBCEScaled is SigmoidBCE with an explicit denominator (see
// SoftmaxCrossEntropyScaled).
func SigmoidBCEScaled(logits, targets *tensor.Matrix, mask []bool, denom float64) (float64, *tensor.Matrix) {
	return SigmoidBCEWeighted(logits, targets, mask, denom, 1)
}

// SigmoidBCEWeighted is SigmoidBCEScaled with a positive-class weight:
// each positive target's loss term is multiplied by posWeight. With ~1–4
// positives among 100+ classes (Yelp, AmazonProducts), unweighted BCE
// spends most of training in the trivial all-negative regime; weighting by
// roughly the negative/positive ratio is the standard correction.
func SigmoidBCEWeighted(logits, targets *tensor.Matrix, mask []bool, denom, posWeight float64) (float64, *tensor.Matrix) {
	if !logits.SameShape(targets) {
		panic("nn: SigmoidBCE shape mismatch")
	}
	grad := tensor.New(logits.Rows, logits.Cols)
	if denom <= 0 {
		return 0, grad
	}
	inv := 1 / denom
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		lrow := logits.Row(i)
		trow := targets.Row(i)
		grow := grad.Row(i)
		for j, z := range lrow {
			t := float64(trow[j])
			zf := float64(z)
			// Stable softplus forms: softplus(z) = max(z,0)+log1p(e^{−|z|}).
			sp := math.Max(zf, 0) + math.Log1p(math.Exp(-math.Abs(zf)))
			spNeg := sp - zf // softplus(−z)
			loss += (posWeight*t*spNeg + (1-t)*sp) * inv
			s := 1 / (1 + math.Exp(-zf))
			grow[j] = float32(((1-t)*s - posWeight*t*(1-s)) * inv)
		}
	}
	return loss, grad
}

// Accuracy returns the fraction of masked rows whose argmax equals the
// label.
func Accuracy(logits *tensor.Matrix, labels []int, mask []bool) float64 {
	correct, total := 0, 0
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		total++
		if logits.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
