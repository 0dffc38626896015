//! The serving engine's wire-level types: stream identities, requests
//! and responses.

use hom_data::ClassId;

/// Caller-chosen identity of one independent stream. Any `u64` is valid;
/// the engine hashes it onto a shard, so ids need not be dense or small.
pub type StreamId = u64;

/// One unit of work for [`crate::ServeEngine::submit`]. Requests against
/// the **same** stream are always applied in submission order; requests
/// against different streams are independent and may run concurrently.
#[derive(Debug, Clone)]
pub enum Request {
    /// Classify an unlabeled record with the stream's current prior
    /// (Eq. 10 / §III-C) without touching any state.
    Predict {
        /// The stream whose filter state weighs the ensemble.
        stream: StreamId,
        /// Attribute values of the record.
        x: Vec<f64>,
    },
    /// Absorb a labeled record into the stream's posterior (Eqs. 7–9)
    /// and roll the prior to the next timestamp (Eq. 5).
    Observe {
        /// The stream to update.
        stream: StreamId,
        /// Attribute values of the record.
        x: Vec<f64>,
        /// The revealed label.
        y: ClassId,
    },
    /// [`Request::Predict`] then [`Request::Observe`] of the same record
    /// — the benchmark lifecycle of `OnlinePredictor::step` (the
    /// prediction never sees `y`).
    Step {
        /// The stream to predict on and update.
        stream: StreamId,
        /// Attribute values of the record.
        x: Vec<f64>,
        /// The revealed label (absorbed after the prediction is made).
        y: ClassId,
    },
    /// Advance the stream `k` timestamps without labels (variable-rate
    /// streams, §III-B).
    Advance {
        /// The stream to advance.
        stream: StreamId,
        /// Number of label-less timestamps that elapsed.
        k: usize,
    },
}

impl Request {
    /// The stream this request addresses.
    pub fn stream(&self) -> StreamId {
        match *self {
            Request::Predict { stream, .. }
            | Request::Observe { stream, .. }
            | Request::Step { stream, .. }
            | Request::Advance { stream, .. } => stream,
        }
    }

    /// The record this request carries (`None` for `Advance`).
    pub fn record(&self) -> Option<&[f64]> {
        match self {
            Request::Predict { x, .. } | Request::Observe { x, .. } | Request::Step { x, .. } => {
                Some(x)
            }
            Request::Advance { .. } => None,
        }
    }
}

/// A request whose record is not as wide as the model's schema: a
/// record the kernel cannot evaluate (a split on a missing attribute
/// would read past its end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthError {
    /// Index of the request in its batch.
    pub request: usize,
    /// Attributes the record has.
    pub width: usize,
    /// Attributes the model's schema has ([`hom_data::Schema::n_attrs`]).
    pub n_attrs: usize,
}

impl WidthError {
    /// `Err` when request `index`'s record is not `n_attrs` wide.
    #[inline]
    pub fn check(index: usize, request: &Request, n_attrs: usize) -> Result<(), WidthError> {
        match request.record() {
            Some(x) if x.len() != n_attrs => Err(WidthError {
                request: index,
                width: x.len(),
                n_attrs,
            }),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for WidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request {}: record has {} attributes, the model's schema has {}",
            self.request, self.width, self.n_attrs
        )
    }
}

impl std::error::Error for WidthError {}

/// Reads the [`Display`](std::fmt::Display) form back, as a worker's
/// 400 body carries it to the router.
impl std::str::FromStr for WidthError {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        let rest = s.strip_prefix("request ").ok_or(())?;
        let (request, rest) = rest.split_once(": record has ").ok_or(())?;
        let (width, n_attrs) = rest
            .split_once(" attributes, the model's schema has ")
            .ok_or(())?;
        let number = |v: &str| v.parse::<usize>().map_err(|_| ());
        Ok(WidthError {
            request: number(request)?,
            width: number(width)?,
            n_attrs: number(n_attrs)?,
        })
    }
}

/// The outcome of one [`Request`], in the same position as its request
/// in the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The stream the request addressed.
    pub stream: StreamId,
    /// The class prediction for `Predict` and `Step` requests; `None`
    /// for `Observe` and `Advance`.
    pub prediction: Option<ClassId>,
}
