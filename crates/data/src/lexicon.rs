//! Built-in topic lexicon for the synthetic datasets.
//!
//! POI descriptions mix *city-independent* words (shared across cities,
//! drawn from a topic's lexicon below) with *city-dependent* words
//! (generated per city, e.g. a landmark vocabulary). This mirrors
//! Fig. 1a: the shared words are the signal a transferable recommender
//! must latch onto; the city words are the nuisance MMD must suppress.

/// A named topic with its city-independent vocabulary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Topic {
    /// Short topic name (also a word itself).
    pub(crate) name: &'static str,
    /// City-independent words evocative of the topic.
    pub(crate) shared_words: &'static [&'static str],
}

/// The built-in topics. Chosen to echo the paper's running examples
/// (museums, parks, casinos, theatres, Italian restaurants...).
pub(crate) const TOPICS: &[Topic] = &[
    Topic {
        name: "museum",
        shared_words: &[
            "museum",
            "art gallery",
            "exhibit",
            "sculpture",
            "paintings",
            "history",
            "artifacts",
            "modern art",
            "curator",
            "gallery tour",
            "installation",
            "photography",
        ],
    },
    Topic {
        name: "park",
        shared_words: &[
            "park",
            "scenic views",
            "hiking",
            "trails",
            "picnic",
            "gardens",
            "national park",
            "wildlife",
            "lake",
            "outdoors",
            "sunset",
            "playground",
        ],
    },
    Topic {
        name: "theater",
        shared_words: &[
            "theater",
            "concert hall",
            "stage",
            "live music",
            "blues",
            "dancing",
            "orchestra",
            "musical",
            "opera",
            "rock club",
            "acoustics",
            "encore",
        ],
    },
    Topic {
        name: "cinema",
        shared_words: &[
            "cinema",
            "multiplex",
            "popcorn",
            "movies",
            "premiere",
            "screening",
            "imax",
            "matinee",
            "caramel corn",
            "trailers",
            "blockbuster",
            "film festival",
        ],
    },
    Topic {
        name: "italian",
        shared_words: &[
            "italian restaurant",
            "pizza place",
            "bakery",
            "pasta",
            "cocktails",
            "espresso",
            "tiramisu",
            "risotto",
            "wine list",
            "antipasti",
            "gelato",
            "portobello fries",
        ],
    },
    Topic {
        name: "asian",
        shared_words: &[
            "thai restaurant",
            "pad thai",
            "sushi",
            "ramen",
            "dim sum",
            "spicy lime",
            "noodles",
            "dumplings",
            "curry",
            "wok",
            "bento",
            "great thai",
        ],
    },
    Topic {
        name: "nightlife",
        shared_words: &[
            "bar",
            "nightclub",
            "craft beer",
            "whiskey",
            "rooftop",
            "happy hour",
            "dj",
            "lounge",
            "speakeasy",
            "karaoke",
            "late night",
            "dance floor",
        ],
    },
    Topic {
        name: "casino",
        shared_words: &[
            "casino",
            "poker",
            "slots",
            "blackjack",
            "jackpot",
            "high roller",
            "roulette",
            "betting",
            "chips",
            "dealer",
            "neon",
            "buffet",
        ],
    },
    Topic {
        name: "shopping",
        shared_words: &[
            "shopping mall",
            "boutique",
            "outlet",
            "fashion",
            "souvenirs",
            "market",
            "vintage",
            "designer",
            "arcade",
            "bookstore",
            "record shop",
            "flea market",
        ],
    },
    Topic {
        name: "coffee",
        shared_words: &[
            "coffee shop",
            "latte",
            "espresso bar",
            "pastries",
            "wifi",
            "cozy",
            "cold brew",
            "croissant",
            "baristas",
            "quiet",
            "brunch",
            "bagels",
        ],
    },
    Topic {
        name: "sports",
        shared_words: &[
            "stadium",
            "arena",
            "baseball",
            "basketball",
            "tailgate",
            "season tickets",
            "scoreboard",
            "home team",
            "playoffs",
            "bleachers",
            "hot dogs",
            "jerseys",
        ],
    },
    Topic {
        name: "historic",
        shared_words: &[
            "historic site",
            "landmark",
            "monument",
            "architecture",
            "guided tours",
            "heritage",
            "old town",
            "cathedral",
            "memorial",
            "plaza",
            "walking tour",
            "cobblestone",
        ],
    },
    Topic {
        name: "hotel",
        shared_words: &[
            "hotel",
            "swimming pool",
            "lobby",
            "room service",
            "spa",
            "concierge",
            "suites",
            "valet",
            "rooftop pool",
            "check-in",
            "minibar",
            "bowling",
        ],
    },
    Topic {
        name: "transport",
        shared_words: &[
            "airport",
            "terminal",
            "flights",
            "24-hour",
            "gates",
            "layover",
            "train station",
            "metro",
            "departures",
            "baggage claim",
            "shuttle",
            "transit",
        ],
    },
];

/// Number of built-in topics.
pub(crate) fn num_topics() -> usize {
    TOPICS.len()
}

/// Deterministically generates `count` city-dependent words for
/// (`city_name`, topic). These play the role of "golden gate bridge" /
/// "hollywood sign": strings no other city shares.
pub(crate) fn city_words(city_name: &str, topic: &Topic, count: usize) -> Vec<String> {
    let slug: String = city_name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    (0..count)
        .map(|i| format!("{slug} {} spot {}", topic.name, i + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topics_are_nonempty_and_distinctly_named() {
        assert!(num_topics() >= 10);
        let mut names: Vec<_> = TOPICS.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TOPICS.len(), "duplicate topic names");
        for t in TOPICS {
            assert!(t.shared_words.len() >= 10, "{} too small", t.name);
        }
    }

    #[test]
    fn shared_words_unique_within_topic() {
        for t in TOPICS {
            let mut w: Vec<_> = t.shared_words.to_vec();
            w.sort_unstable();
            w.dedup();
            assert_eq!(w.len(), t.shared_words.len(), "dup word in {}", t.name);
        }
    }

    #[test]
    fn city_words_are_city_specific_and_deterministic() {
        let a = city_words("Los Angeles", &TOPICS[0], 3);
        let b = city_words("Los Angeles", &TOPICS[0], 3);
        let c = city_words("New York", &TOPICS[0], 3);
        assert_eq!(a, b);
        assert!(a.iter().all(|w| !c.contains(w)));
        assert!(a[0].starts_with("losangeles"));
    }
}
