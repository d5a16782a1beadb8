//! A Genann-style feed-forward artificial neural network.
//!
//! The paper's Fig 8 experiment trains Genann (a dependency-free C ANN
//! library) on a replicated Iris dataset inside WaTZ. This crate is the
//! faithful Rust counterpart: fully-connected feed-forward networks with
//! sigmoid activations, trained by online backpropagation — the same
//! algorithm and network shape (4 inputs, 1 hidden layer of 4 neurons,
//! 3 outputs) as the paper's benchmark.
//!
//! Like Genann, the implementation has zero external dependencies and a
//! deterministic weight initialiser, so native and Wasm runs are
//! bit-comparable in structure.
//!
//! # Example
//!
//! ```
//! use genann_rs::Genann;
//!
//! // XOR with a 2-2-1 network.
//! let mut nn = Genann::new(2, 1, 2, 1);
//! let data = [
//!     ([0.0, 0.0], [0.0]),
//!     ([0.0, 1.0], [1.0]),
//!     ([1.0, 0.0], [1.0]),
//!     ([1.0, 1.0], [0.0]),
//! ];
//! for _ in 0..2000 {
//!     for (x, y) in &data {
//!         nn.train(x, y, 3.0);
//!     }
//! }
//! assert!(nn.run(&[0.0, 1.0])[0] > 0.5);
//! assert!(nn.run(&[1.0, 1.0])[0] < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iris;

/// A feed-forward neural network with sigmoid activations.
#[derive(Debug, Clone)]
pub struct Genann {
    inputs: usize,
    hidden_layers: usize,
    hidden: usize,
    outputs: usize,
    /// All weights, laid out layer by layer (bias first per neuron),
    /// exactly like Genann's flat `weight` array.
    weights: Vec<f64>,
    /// Scratch: activations of every neuron (inputs + hidden + outputs).
    activations: Vec<f64>,
    /// Scratch: deltas for hidden + output neurons.
    deltas: Vec<f64>,
}

fn sigmoid(x: f64) -> f64 {
    if x < -45.0 {
        return 0.0;
    }
    if x > 45.0 {
        return 1.0;
    }
    1.0 / (1.0 + (-x).exp())
}

impl Genann {
    /// Creates a network with deterministic pseudo-random weights
    /// (matching Genann's `genann_randomize` in spirit).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (except `hidden_layers`, which may
    /// be zero for a perceptron).
    #[must_use]
    pub fn new(inputs: usize, hidden_layers: usize, hidden: usize, outputs: usize) -> Self {
        assert!(
            inputs > 0 && outputs > 0,
            "network needs inputs and outputs"
        );
        assert!(
            hidden_layers == 0 || hidden > 0,
            "hidden layers need neurons"
        );
        let total_weights = Self::weight_count(inputs, hidden_layers, hidden, outputs);
        let total_neurons = inputs + hidden_layers * hidden + outputs;
        let mut nn = Genann {
            inputs,
            hidden_layers,
            hidden,
            outputs,
            weights: vec![0.0; total_weights],
            activations: vec![0.0; total_neurons],
            deltas: vec![0.0; hidden_layers * hidden + outputs],
        };
        nn.randomize(0x9E37_79B9);
        nn
    }

    /// Number of weights for the given topology.
    #[must_use]
    fn weight_count(inputs: usize, hidden_layers: usize, hidden: usize, outputs: usize) -> usize {
        if hidden_layers == 0 {
            (inputs + 1) * outputs
        } else {
            (inputs + 1) * hidden
                + (hidden_layers - 1) * (hidden + 1) * hidden
                + (hidden + 1) * outputs
        }
    }

    /// Re-randomizes the weights from a seed (xorshift, range ±0.5).
    fn randomize(&mut self, seed: u64) {
        let mut state = seed.max(1);
        for w in &mut self.weights {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            *w = (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
    }

    /// Runs a forward pass, returning the output activations.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the network's input count.
    pub fn run(&mut self, inputs: &[f64]) -> Vec<f64> {
        assert_eq!(inputs.len(), self.inputs, "input size mismatch");
        self.activations[..self.inputs].copy_from_slice(inputs);

        let mut w = 0; // weight cursor
        let mut in_start = 0; // start of previous layer activations
        let mut in_count = self.inputs;
        let mut out_start = self.inputs;

        for layer in 0..=self.hidden_layers {
            let out_count = if layer == self.hidden_layers {
                self.outputs
            } else {
                self.hidden
            };
            for o in 0..out_count {
                // Bias weight first, like Genann (input of -1).
                let mut sum = -self.weights[w];
                w += 1;
                for i in 0..in_count {
                    sum += self.weights[w] * self.activations[in_start + i];
                    w += 1;
                }
                self.activations[out_start + o] = sigmoid(sum);
            }
            in_start = out_start;
            in_count = out_count;
            out_start += out_count;
        }

        let total = self.activations.len();
        self.activations[total - self.outputs..].to_vec()
    }

    /// One online backpropagation step toward `desired`.
    ///
    /// # Panics
    ///
    /// Panics on input/output size mismatches.
    pub fn train(&mut self, inputs: &[f64], desired: &[f64], learning_rate: f64) {
        assert_eq!(desired.len(), self.outputs, "output size mismatch");
        let _ = self.run(inputs);

        let n_hidden_neurons = self.hidden_layers * self.hidden;
        let total = self.activations.len();

        // Output deltas: o * (1 - o) * (t - o).
        for (o, &d) in desired.iter().enumerate().take(self.outputs) {
            let a = self.activations[total - self.outputs + o];
            self.deltas[n_hidden_neurons + o] = a * (1.0 - a) * (d - a);
        }

        // Hidden deltas, back to front.
        for layer in (0..self.hidden_layers).rev() {
            let layer_start = self.inputs + layer * self.hidden;
            let (next_count, next_delta_start) = if layer + 1 == self.hidden_layers {
                (self.outputs, n_hidden_neurons)
            } else {
                (self.hidden, (layer + 1) * self.hidden)
            };
            // Weights of the *next* layer.
            let next_w_start = self.layer_weight_start(layer + 1);
            for h in 0..self.hidden {
                let a = self.activations[layer_start + h];
                let mut err = 0.0;
                for n in 0..next_count {
                    // +1 skips the bias weight of neuron n.
                    let w = self.weights[next_w_start + n * (self.hidden + 1) + 1 + h];
                    err += w * self.deltas[next_delta_start + n];
                }
                self.deltas[layer * self.hidden + h] = a * (1.0 - a) * err;
            }
        }

        // Weight updates, front to back.
        let mut w = 0;
        let mut in_start = 0;
        let mut in_count = self.inputs;
        for layer in 0..=self.hidden_layers {
            let (out_count, delta_start) = if layer == self.hidden_layers {
                (self.outputs, n_hidden_neurons)
            } else {
                (self.hidden, layer * self.hidden)
            };
            for o in 0..out_count {
                let delta = self.deltas[delta_start + o];
                self.weights[w] += -(learning_rate * delta); // bias
                w += 1;
                for i in 0..in_count {
                    self.weights[w] += learning_rate * delta * self.activations[in_start + i];
                    w += 1;
                }
            }
            in_start += in_count;
            in_count = out_count;
        }
    }

    /// Offset into the flat weight array where `layer`'s weights begin
    /// (layer 0 = first hidden layer, or outputs if no hidden layers).
    fn layer_weight_start(&self, layer: usize) -> usize {
        if layer == 0 {
            return 0;
        }
        let mut offset = (self.inputs + 1) * self.hidden;
        offset += (layer - 1) * (self.hidden + 1) * self.hidden;
        offset
    }

    /// Mean squared error over a dataset.
    pub fn mse(&mut self, data: &[(Vec<f64>, Vec<f64>)]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for (x, y) in data {
            let out = self.run(x);
            for (o, t) in out.iter().zip(y) {
                sum += (o - t) * (o - t);
                n += 1;
            }
        }
        sum / f64::from(n.max(1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_count_matches_topology() {
        // 4-4-3 network (the paper's): (4+1)*4 + (4+1)*3 = 35.
        assert_eq!(Genann::weight_count(4, 1, 4, 3), 35);
        // Perceptron: (2+1)*1 = 3.
        assert_eq!(Genann::weight_count(2, 0, 0, 1), 3);
        // Two hidden layers: (2+1)*3 + (3+1)*3 + (3+1)*1 = 9+12+4 = 25.
        assert_eq!(Genann::weight_count(2, 2, 3, 1), 25);
    }

    #[test]
    fn outputs_in_sigmoid_range() {
        let mut nn = Genann::new(4, 1, 4, 3);
        let out = nn.run(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(out.len(), 3);
        for o in out {
            assert!((0.0..=1.0).contains(&o));
        }
    }

    #[test]
    fn deterministic_initialisation() {
        let mut a = Genann::new(4, 1, 4, 3);
        let mut b = Genann::new(4, 1, 4, 3);
        assert_eq!(a.run(&[1.0, 2.0, 3.0, 4.0]), b.run(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn training_reduces_error_on_xor() {
        let mut nn = Genann::new(2, 1, 4, 1);
        let data: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (vec![0.0, 0.0], vec![0.0]),
            (vec![0.0, 1.0], vec![1.0]),
            (vec![1.0, 0.0], vec![1.0]),
            (vec![1.0, 1.0], vec![0.0]),
        ];
        let before = nn.mse(&data);
        for _ in 0..3000 {
            for (x, y) in &data {
                nn.train(x, y, 3.0);
            }
        }
        let after = nn.mse(&data);
        assert!(after < before, "MSE {before} -> {after}");
        assert!(after < 0.05, "XOR should be learned, MSE = {after}");
    }

    #[test]
    fn learns_iris_classes() {
        let data = iris::dataset();
        let mut nn = Genann::new(4, 1, 4, 3);
        for _ in 0..300 {
            for sample in &data {
                nn.train(&sample.features, &sample.one_hot(), 0.5);
            }
        }
        // Accuracy on training data should be high.
        let mut correct = 0;
        for sample in &data {
            let out = nn.run(&sample.features);
            let predicted = out
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .map(|(i, _)| i)
                .expect("non-empty");
            if predicted == sample.class {
                correct += 1;
            }
        }
        let accuracy = f64::from(correct) / data.len() as f64;
        assert!(accuracy > 0.9, "accuracy {accuracy}");
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn wrong_input_size_panics() {
        let mut nn = Genann::new(4, 1, 4, 3);
        let _ = nn.run(&[1.0]);
    }

    #[test]
    fn perceptron_without_hidden_layers() {
        let mut nn = Genann::new(2, 0, 0, 1);
        // Learn AND.
        for _ in 0..2000 {
            nn.train(&[0.0, 0.0], &[0.0], 1.0);
            nn.train(&[0.0, 1.0], &[0.0], 1.0);
            nn.train(&[1.0, 0.0], &[0.0], 1.0);
            nn.train(&[1.0, 1.0], &[1.0], 1.0);
        }
        assert!(nn.run(&[1.0, 1.0])[0] > 0.5);
        assert!(nn.run(&[0.0, 1.0])[0] < 0.5);
    }
}
