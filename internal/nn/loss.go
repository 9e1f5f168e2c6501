package nn

import (
	"fmt"
	"math"

	"edgetune/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch
// of logits against integer labels and the gradient of the loss with
// respect to the logits (softmax - onehot, scaled by 1/batch).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (loss float64, grad *tensor.Matrix, err error) {
	grad = new(tensor.Matrix)
	if loss, err = softmaxCrossEntropyInto(grad, logits, labels); err != nil {
		return 0, nil, err
	}
	return loss, grad, nil
}

// softmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient
// into the caller-owned grad, which it resizes.
func softmaxCrossEntropyInto(grad, logits *tensor.Matrix, labels []int) (loss float64, err error) {
	if len(labels) != logits.Rows {
		return 0, fmt.Errorf("nn: %d labels for %d logit rows", len(labels), logits.Rows)
	}
	grad.Resize(logits.Rows, logits.Cols)
	copy(grad.Data, logits.Data)
	grad.SoftmaxRows()
	invN := 1 / float64(logits.Rows)
	for i, label := range labels {
		if label < 0 || label >= logits.Cols {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", label, logits.Cols)
		}
		p := grad.At(i, label)
		grad.Set(i, label, p-1)
		// Clamp to avoid log(0) on confidently wrong predictions.
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	grad.Scale(invN)
	return loss * invN, nil
}
